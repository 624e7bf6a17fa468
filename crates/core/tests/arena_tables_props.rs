//! Property tests: the arena-backed measurement tables (lazy profile slots,
//! merged cell chains, sparse wall entries) are observation-equivalent to
//! the old dense layouts they replaced.  Each test drives the real table and
//! a dense reference model — plain `Vec`s indexed by event id, exactly the
//! pre-arena storage — through the same random probe / batch-fold / reset
//! sequence, then checks every observable surface (point reads, iteration
//! order, totals, how live activations close) against the model, on the
//! table and on its KTAS wire roundtrip, and that the wire encoding (what
//! state digests hash) is canonical: encode → decode → encode reproduces
//! the bytes even though the decoder allocates in its own order.

mod common;

use common::*;
use ktau_core::measure::{MergedStats, MergedTable, WallTable};
use ktau_core::profile::{AtomicStats, EntryExitStats, Profile, StopInfo};
use ktau_core::wire::{Reader, Writer};
use ktau_core::EventId;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Dense reference arithmetic (the stats math is shared by both layouts; the
// property under test is the *storage*, so the model re-states it verbatim)
// ---------------------------------------------------------------------------

fn model_record(e: &mut EntryExitStats, incl: u64, excl: u64, outermost: bool) {
    e.count += 1;
    e.excl_ns += excl;
    if outermost {
        e.incl_ns += incl;
        if e.count == 1 || incl < e.min_incl_ns {
            e.min_incl_ns = incl;
        }
        if incl > e.max_incl_ns {
            e.max_incl_ns = incl;
        }
    }
}

fn model_atomic(a: &mut AtomicStats, v: u64) {
    if a.count == 0 {
        a.min = v;
        a.max = v;
    } else {
        a.min = a.min.min(v);
        a.max = a.max.max(v);
    }
    a.count += 1;
    a.sum += v;
}

fn grow<T: Clone + Default>(v: &mut Vec<T>, i: usize) {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
}

// ---------------------------------------------------------------------------
// Profile: probes (start/stop), batch folds (record_repeat), scheduler
// intervals, atomics, resets
// ---------------------------------------------------------------------------

/// Mirror of one live activation frame, kept so the model can reproduce the
/// stop-time inclusive/exclusive arithmetic.
struct Activation {
    event: EventId,
    entry_ns: u64,
    child_ns: u64,
    interval_ns: u64,
    recursive: bool,
}

/// Point reads (fired ids, never-fired ids and ids past the largest touched
/// read as defaults), iteration and totals of `p` against the dense model.
fn check_profile(
    p: &Profile,
    entries: &[EntryExitStats],
    atomics: &[AtomicStats],
) -> Result<(), TestCaseError> {
    for i in 0..IDS + 8 {
        let want = entries.get(i as usize).copied().unwrap_or_default();
        prop_assert_eq!(p.entry_stats(EventId(i)), want);
        let want = atomics.get(i as usize).copied().unwrap_or_default();
        prop_assert_eq!(p.atomic_stats(EventId(i)), want);
    }

    // Iteration: exactly the model's count>0 rows, ascending id.
    let got: Vec<(u32, EntryExitStats)> = p.iter_entries().map(|(id, s)| (id.0, *s)).collect();
    let want: Vec<(u32, EntryExitStats)> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.count > 0)
        .map(|(i, e)| (i as u32, *e))
        .collect();
    prop_assert_eq!(got, want);
    let got: Vec<(u32, AtomicStats)> = p.iter_atomics().map(|(id, s)| (id.0, *s)).collect();
    let want: Vec<(u32, AtomicStats)> = atomics
        .iter()
        .enumerate()
        .filter(|(_, a)| a.count > 0)
        .map(|(i, a)| (i as u32, *a))
        .collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(
        p.total_excl_ns(),
        entries.iter().map(|e| e.excl_ns).sum::<u64>()
    );
    Ok(())
}

proptest! {
    #[test]
    fn profile_arena_matches_dense_model(ops in proptest::collection::vec(arb_pop(), 1..120)) {
        let mut p = Profile::new();
        // The dense model: stats/active vectors up to the largest touched
        // id, exactly the old eager layout.
        let mut entries: Vec<EntryExitStats> = Vec::new();
        let mut active: Vec<u32> = Vec::new();
        let mut atomics: Vec<AtomicStats> = Vec::new();
        let mut stack: Vec<Activation> = Vec::new();
        let mut now: u64 = 1;

        for op in &ops {
            match *op {
                POp::Start { id, dwell } => {
                    if stack.len() >= 6 {
                        continue;
                    }
                    grow(&mut entries, id as usize);
                    grow(&mut active, id as usize);
                    let recursive = active[id as usize] > 0;
                    active[id as usize] += 1;
                    p.start(EventId(id), now);
                    stack.push(Activation { event: EventId(id), entry_ns: now, child_ns: 0, interval_ns: 0, recursive });
                    now += dwell;
                }
                POp::Stop { dwell } => {
                    let Some(f) = stack.pop() else { continue };
                    p.stop(f.event, now).unwrap();
                    active[f.event.0 as usize] -= 1;
                    let incl = now - f.entry_ns;
                    let excl = incl.saturating_sub(f.child_ns);
                    model_record(&mut entries[f.event.0 as usize], incl, excl, !f.recursive);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += incl;
                    }
                    now += dwell;
                }
                POp::RecordRepeat { id, incl, extra, n } => {
                    grow(&mut entries, id as usize);
                    grow(&mut active, id as usize);
                    if active[id as usize] > 0 {
                        continue; // folding an active event is a contract violation
                    }
                    let excl = incl.saturating_sub(extra);
                    p.record_repeat(EventId(id), incl, excl, n);
                    let e = &mut entries[id as usize];
                    let first = e.count == 0;
                    e.count += n;
                    e.excl_ns += excl * n;
                    e.incl_ns += incl * n;
                    if first || incl < e.min_incl_ns {
                        e.min_incl_ns = incl;
                    }
                    if incl > e.max_incl_ns {
                        e.max_incl_ns = incl;
                    }
                }
                POp::AddInterval { id, d } => {
                    grow(&mut entries, id as usize);
                    grow(&mut active, id as usize);
                    p.add_interval(EventId(id), d);
                    model_record(&mut entries[id as usize], d, d, true);
                    if let Some(top) = stack.last_mut() {
                        top.child_ns += d;
                    }
                    for f in &mut stack {
                        f.interval_ns += d;
                    }
                }
                POp::Atomic { id, v } => {
                    grow(&mut atomics, id as usize);
                    p.atomic(EventId(id), v);
                    model_atomic(&mut atomics[id as usize], v);
                }
                POp::Reset => {
                    p.reset();
                    for e in &mut entries {
                        *e = EntryExitStats::default();
                    }
                    for a in &mut atomics {
                        *a = AtomicStats::default();
                    }
                    for f in &mut stack {
                        f.child_ns = 0;
                        f.interval_ns = 0;
                    }
                }
            }
        }

        // The codec roundtrips to the same content, and the image is
        // canonical: re-encoding the decoded profile reproduces it
        // byte-for-byte even though in-memory slot allocation order (and
        // zeroed slots a reset leaves behind) may differ.
        check_profile(&p, &entries, &atomics)?;
        let mut w = Writer::new();
        p.encode_wire(&mut w);
        let mut d = Profile::decode_wire(&mut Reader::new(w.as_slice())).unwrap();
        check_profile(&d, &entries, &atomics)?;
        let mut w2 = Writer::new();
        d.encode_wire(&mut w2);
        prop_assert_eq!(w2.as_slice(), w.as_slice());

        // The live activation stack: closing every frame gives the model's
        // stop arithmetic on both the table and its decoded copy.
        prop_assert_eq!(d.depth(), stack.len());
        while let Some(f) = stack.pop() {
            let want = StopInfo {
                incl_ns: now - f.entry_ns,
                interval_ns: f.interval_ns,
                recursive: f.recursive,
            };
            prop_assert_eq!(p.stop(f.event, now), Ok(want));
            prop_assert_eq!(d.stop(f.event, now), Ok(want));
            let excl = want.incl_ns.saturating_sub(f.child_ns);
            model_record(&mut entries[f.event.0 as usize], want.incl_ns, excl, !f.recursive);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += want.incl_ns;
            }
            now += 3;
        }
        check_profile(&p, &entries, &atomics)?;
        check_profile(&d, &entries, &atomics)?;
    }
}

// ---------------------------------------------------------------------------
// MergedTable: add_n folds, bare cell touches (count-0 cells must not become
// observations), clears
// ---------------------------------------------------------------------------

fn mslot(user: Option<u32>) -> usize {
    user.map_or(0, |u| u as usize + 1)
}

proptest! {
    #[test]
    fn merged_arena_matches_dense_model(ops in proptest::collection::vec(arb_mop(), 1..100)) {
        let mut t = MergedTable::default();
        // The dense model: the old Vec<Vec<MergedStats>>, each row dense up
        // to the largest kernel column it ever saw.
        let mut rows: Vec<Vec<MergedStats>> = Vec::new();

        for op in &ops {
            match *op {
                MOp::Add { user, kernel, ns, n } => {
                    t.add_n(mkey(user, kernel), ns, n);
                    grow(&mut rows, mslot(user));
                    grow(&mut rows[mslot(user)], kernel as usize);
                    let c = &mut rows[mslot(user)][kernel as usize];
                    c.count += n;
                    c.ns += ns * n;
                }
                MOp::Touch { user, kernel } => {
                    t.cell_mut(mkey(user, kernel));
                    grow(&mut rows, mslot(user));
                    grow(&mut rows[mslot(user)], kernel as usize);
                }
                MOp::Clear => {
                    t.clear();
                    rows.clear();
                }
            }
        }

        // The table, then its decoded copy, against the model; then the
        // decoded copy re-encodes to the same bytes.
        check_merged(&t, &rows)?;
        let mut w = Writer::new();
        t.encode_wire(&mut w);
        let d = MergedTable::decode_wire(&mut Reader::new(w.as_slice())).unwrap();
        check_merged(&d, &rows)?;
        let mut w2 = Writer::new();
        d.encode_wire(&mut w2);
        prop_assert_eq!(w2.as_slice(), w.as_slice());
    }
}

/// Point reads across the whole grid (touched-but-zero cells and
/// never-touched cells both read back as absent) and row-major iteration
/// of `t` against the dense model.
fn check_merged(t: &MergedTable, rows: &[Vec<MergedStats>]) -> Result<(), TestCaseError> {
    for user in std::iter::once(None).chain((0..USERS).map(Some)) {
        for kernel in 0..KERNELS {
            let want = rows
                .get(mslot(user))
                .and_then(|r| r.get(kernel as usize))
                .filter(|c| c.count > 0)
                .copied();
            prop_assert_eq!(t.get(mkey(user, kernel)).copied(), want);
        }
    }
    let got: Vec<(usize, u32, MergedStats)> = t
        .iter()
        .map(|((u, k), s)| (mslot(u.map(|e| e.0)), k.0, *s))
        .collect();
    let want: Vec<(usize, u32, MergedStats)> = rows
        .iter()
        .enumerate()
        .flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, c)| c.count > 0)
                .map(move |(k, c)| (r, k as u32, *c))
        })
        .collect();
    prop_assert_eq!(got, want);
    Ok(())
}

// ---------------------------------------------------------------------------
// WallTable: sparse entries vs the old Vec<Option<Ns>> — presence must keep
// distinguishing "never recorded" from an accumulated zero
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn wall_arena_matches_dense_model(ops in proptest::collection::vec(arb_wop(), 1..80)) {
        let mut wt = WallTable::default();
        // The dense model: the old Vec<Option<Ns>> itself.
        let mut model: Vec<Option<u64>> = Vec::new();

        for op in &ops {
            match *op {
                WOp::Add { user, ns } => {
                    wt.add(user.map(EventId), ns);
                    grow(&mut model, mslot(user));
                    let c = model[mslot(user)].get_or_insert(0);
                    *c += ns;
                }
                WOp::Clear => {
                    wt.clear();
                    model.clear();
                }
            }
        }

        check_wall(&wt, &model)?;
        let mut w = Writer::new();
        wt.encode_wire(&mut w);
        let d = WallTable::decode_wire(&mut Reader::new(w.as_slice())).unwrap();
        check_wall(&d, &model)?;
        let mut w2 = Writer::new();
        d.encode_wire(&mut w2);
        prop_assert_eq!(w2.as_slice(), w.as_slice());
    }
}

/// Point reads, including a zero-ns accumulation staying `Some`, and
/// iteration in dense slot order of `wt` against the dense model.
fn check_wall(wt: &WallTable, model: &[Option<u64>]) -> Result<(), TestCaseError> {
    for user in std::iter::once(None).chain((0..USERS).map(Some)) {
        let want = model.get(mslot(user)).copied().flatten();
        prop_assert_eq!(wt.get(user.map(EventId)), want);
    }
    let got: Vec<(usize, u64)> = wt
        .iter()
        .map(|(u, ns)| (mslot(u.map(|e| e.0)), ns))
        .collect();
    let want: Vec<(usize, u64)> = model
        .iter()
        .enumerate()
        .filter_map(|(s, o)| o.map(|ns| (s, ns)))
        .collect();
    prop_assert_eq!(got, want);
    Ok(())
}
