//! Property-based tests for the profile codecs over *adversarial* names
//! (escape characters, sentinels, unicode, empty strings) and for the
//! incremental delta codec: `apply(base, delta) == full` across random
//! mutation sequences, with tampered baselines never silently diverging.
//! The byte-level delta and apply of `EncodedProfile` are checked against
//! the struct diff and apply they replaced, kept here as the reference
//! model.

use ktau_core::digest::content_check;
use ktau_core::profile::{AtomicStats, EntryExitStats};
use ktau_core::snapshot::{
    apply_delta, decode_delta, decode_profile, encode_delta, encode_profile, profile_delta,
    profile_from_ascii, profile_to_ascii, AtomicRow, CodecError, EncodedProfile, EventRow,
    MergedRow, ProfileDelta, ProfileSnapshot, SectionDelta,
};
use ktau_core::Group;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Adversarial strings
// ---------------------------------------------------------------------------

/// Names chosen to stress every escaping rule at once: the `-` None
/// sentinel and its `\-` escape, lone and trailing backslashes, the literal
/// two-character sequences `\s`/`\n` that must survive unescaping, embedded
/// carriage returns / tabs / newlines, unicode, and the empty string.
fn adversarial_name() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::sample::select(
            [
                "",
                "-",
                "\\-",
                "\\",
                "\\\\",
                "\\s",
                "\\n",
                "a b",
                " lead",
                "trail ",
                "tab\there",
                "cr\rhere",
                "line\nbreak",
                "crlf\r\nboth",
                "ends-with-cr\r",
                "nul\u{0}inside",
                "日本語",
                "emoji🧵name",
                "mixed \\ - \t \r\n 終",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        ),
        // Random soup drawn from escape-significant characters only.
        "[\\\\sn \t\r/.-]{1,10}",
        // Ordinary identifier-ish names keep some baseline coverage.
        "[a-zA-Z0-9_. /-]{0,12}",
    ]
}

fn arb_group() -> impl Strategy<Value = Group> {
    proptest::sample::select(Group::ALL.to_vec())
}

fn arb_event_row() -> impl Strategy<Value = EventRow> {
    (adversarial_name(), arb_group(), any::<[u32; 5]>()).prop_map(|(name, group, v)| EventRow {
        name,
        group,
        stats: EntryExitStats {
            count: v[0] as u64,
            incl_ns: v[1] as u64,
            excl_ns: v[2] as u64,
            min_incl_ns: v[3] as u64,
            max_incl_ns: v[4] as u64,
        },
    })
}

fn arb_atomic_row() -> impl Strategy<Value = AtomicRow> {
    (adversarial_name(), arb_group(), any::<[u32; 4]>()).prop_map(|(name, group, v)| AtomicRow {
        name,
        group,
        stats: AtomicStats {
            count: v[0] as u64,
            sum: v[1] as u64,
            min: v[2] as u64,
            max: v[3] as u64,
        },
    })
}

fn arb_merged_row() -> impl Strategy<Value = MergedRow> {
    (
        proptest::option::of(adversarial_name()),
        adversarial_name(),
        arb_group(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(user, kernel, kernel_group, count, ns)| MergedRow {
            user,
            kernel,
            kernel_group,
            count: count as u64,
            ns: ns as u64,
        })
}

fn arb_wall_row() -> impl Strategy<Value = (Option<String>, u64)> {
    (proptest::option::of(adversarial_name()), any::<u32>()).prop_map(|(u, ns)| (u, ns as u64))
}

fn arb_snapshot() -> impl Strategy<Value = ProfileSnapshot> {
    (
        any::<u32>(),
        adversarial_name(),
        any::<u16>(),
        any::<u32>(),
        proptest::collection::vec(arb_event_row(), 0..8),
        proptest::collection::vec(arb_event_row(), 0..6),
        proptest::collection::vec(arb_atomic_row(), 0..5),
        proptest::collection::vec(arb_merged_row(), 0..6),
        proptest::collection::vec(arb_wall_row(), 0..5),
    )
        .prop_map(
            |(pid, comm, node, taken, kernel_events, user_events, kernel_atomics, merged, wall)| {
                ProfileSnapshot {
                    pid,
                    comm,
                    node: node as u32,
                    taken_ns: taken as u64,
                    kernel_events,
                    kernel_atomics,
                    user_events,
                    merged,
                    kernel_wall: wall,
                }
            },
        )
}

proptest! {
    /// The binary codec round-trips snapshots whose every string is chosen
    /// to break naive escaping.
    #[test]
    fn binary_roundtrip_adversarial_names(p in arb_snapshot()) {
        let bytes = encode_profile(&p);
        prop_assert_eq!(decode_profile(&bytes).unwrap(), p);
    }

    /// So does the ASCII codec: `-` vs `\-` sentinels, backslashes, CR/TAB,
    /// unicode and empty names all survive the text form.
    #[test]
    fn ascii_roundtrip_adversarial_names(p in arb_snapshot()) {
        let text = profile_to_ascii(&p);
        prop_assert_eq!(profile_from_ascii(&text).unwrap(), p);
    }
}

// ---------------------------------------------------------------------------
// Delta codec: random mutation sequences
// ---------------------------------------------------------------------------

/// One random profile mutation, as a KTAU kernel would produce between two
/// KTAUD sweeps: counters move, rows appear (new events fire), sections
/// shrink (profile reset), the comm changes (exec).
#[derive(Debug, Clone)]
enum Mutation {
    BumpTaken(u32),
    SetComm(String),
    TouchKernel(u32, u32),
    PushKernel(EventRow),
    PopKernel,
    TouchUser(u32, u32),
    PushUser(EventRow),
    TouchAtomic(u32, u32),
    PushAtomic(AtomicRow),
    TouchMerged(u32, u32),
    PushMerged(MergedRow),
    TouchWall(u32, u32),
    PushWall(Option<String>, u32),
    ResetAll,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u32>().prop_map(Mutation::BumpTaken),
        adversarial_name().prop_map(Mutation::SetComm),
        (any::<u32>(), any::<u32>()).prop_map(|(i, d)| Mutation::TouchKernel(i, d)),
        arb_event_row().prop_map(Mutation::PushKernel),
        Just(Mutation::PopKernel),
        (any::<u32>(), any::<u32>()).prop_map(|(i, d)| Mutation::TouchUser(i, d)),
        arb_event_row().prop_map(Mutation::PushUser),
        (any::<u32>(), any::<u32>()).prop_map(|(i, d)| Mutation::TouchAtomic(i, d)),
        arb_atomic_row().prop_map(Mutation::PushAtomic),
        (any::<u32>(), any::<u32>()).prop_map(|(i, d)| Mutation::TouchMerged(i, d)),
        arb_merged_row().prop_map(Mutation::PushMerged),
        (any::<u32>(), any::<u32>()).prop_map(|(i, d)| Mutation::TouchWall(i, d)),
        (proptest::option::of(adversarial_name()), any::<u32>())
            .prop_map(|(u, ns)| Mutation::PushWall(u, ns)),
        Just(Mutation::ResetAll),
    ]
}

fn apply_mutation(s: &mut ProfileSnapshot, m: &Mutation) {
    match m {
        Mutation::BumpTaken(d) => s.taken_ns += *d as u64,
        Mutation::SetComm(c) => s.comm = c.clone(),
        Mutation::TouchKernel(i, d) => {
            if !s.kernel_events.is_empty() {
                let i = *i as usize % s.kernel_events.len();
                s.kernel_events[i].stats.count += 1;
                s.kernel_events[i].stats.incl_ns += *d as u64;
            }
        }
        Mutation::PushKernel(r) => s.kernel_events.push(r.clone()),
        Mutation::PopKernel => {
            s.kernel_events.pop();
        }
        Mutation::TouchUser(i, d) => {
            if !s.user_events.is_empty() {
                let i = *i as usize % s.user_events.len();
                s.user_events[i].stats.count += 1;
                s.user_events[i].stats.excl_ns += *d as u64;
            }
        }
        Mutation::PushUser(r) => s.user_events.push(r.clone()),
        Mutation::TouchAtomic(i, d) => {
            if !s.kernel_atomics.is_empty() {
                let i = *i as usize % s.kernel_atomics.len();
                s.kernel_atomics[i].stats.count += 1;
                s.kernel_atomics[i].stats.sum += *d as u64;
            }
        }
        Mutation::PushAtomic(r) => s.kernel_atomics.push(r.clone()),
        Mutation::TouchMerged(i, d) => {
            if !s.merged.is_empty() {
                let i = *i as usize % s.merged.len();
                s.merged[i].count += 1;
                s.merged[i].ns += *d as u64;
            }
        }
        Mutation::PushMerged(r) => s.merged.push(r.clone()),
        Mutation::TouchWall(i, d) => {
            if !s.kernel_wall.is_empty() {
                let i = *i as usize % s.kernel_wall.len();
                s.kernel_wall[i].1 += *d as u64;
            }
        }
        Mutation::PushWall(u, ns) => s.kernel_wall.push((u.clone(), *ns as u64)),
        Mutation::ResetAll => {
            s.kernel_events.clear();
            s.user_events.clear();
            s.kernel_atomics.clear();
            s.merged.clear();
            s.kernel_wall.clear();
        }
    }
}

proptest! {
    /// Across a chain of random mutations, each consecutive delta encodes,
    /// decodes, and applies back to exactly the next snapshot — including
    /// byte-identical binary re-encoding, the invariant the monitoring
    /// service's clients rely on.
    #[test]
    fn delta_chain_reconstructs_exactly(
        base in arb_snapshot(),
        muts in proptest::collection::vec(arb_mutation(), 0..14),
    ) {
        let mut snaps = vec![base];
        for m in &muts {
            let mut next = snaps.last().unwrap().clone();
            apply_mutation(&mut next, m);
            snaps.push(next);
        }
        let mut cur = snaps[0].clone();
        for k in 1..snaps.len() {
            let d = profile_delta(&snaps[k - 1], &snaps[k], (k - 1) as u64, k as u64);
            let bytes = encode_delta(&d);
            let decoded = decode_delta(&bytes).unwrap();
            prop_assert_eq!(&decoded, &d);
            cur = apply_delta(&cur, &decoded).unwrap();
            prop_assert_eq!(&cur, &snaps[k]);
            prop_assert_eq!(encode_profile(&cur), encode_profile(&snaps[k]));
        }
    }

    /// Truncated delta bytes never decode; trailing bytes are rejected with
    /// the dedicated error.
    #[test]
    fn delta_codec_rejects_prefixes_and_trailing(
        base in arb_snapshot(),
        muts in proptest::collection::vec(arb_mutation(), 1..6),
        frac in 0.0f64..1.0,
    ) {
        let mut new = base.clone();
        for m in &muts {
            apply_mutation(&mut new, m);
        }
        let bytes = encode_delta(&profile_delta(&base, &new, 0, 1));
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_delta(&bytes[..cut]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        prop_assert_eq!(decode_delta(&padded).unwrap_err(), CodecError::TrailingBytes);
    }

    /// Applying a delta against a *tampered* baseline either fails — with
    /// `DeltaMismatch`, or `Corrupt` when the baseline is too short for the
    /// section lengths the delta claims — or, when the delta happens to
    /// overwrite everything the tampering touched, still reconstructs the
    /// true snapshot.  It never silently produces anything else.
    #[test]
    fn tampered_baseline_never_silently_diverges(
        base in arb_snapshot(),
        muts in proptest::collection::vec(arb_mutation(), 1..6),
        tamper in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut new = base.clone();
        for m in &muts {
            apply_mutation(&mut new, m);
        }
        let d = profile_delta(&base, &new, 0, 1);
        let mut bad_base = base.clone();
        for m in &tamper {
            apply_mutation(&mut bad_base, m);
        }
        match apply_delta(&bad_base, &d) {
            Ok(got) => prop_assert_eq!(got, new),
            Err(e) => prop_assert!(
                matches!(e, CodecError::DeltaMismatch | CodecError::Corrupt(_)),
                "unexpected error {e:?}"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-level delta and apply against the struct reference model
// ---------------------------------------------------------------------------

/// Reference diff: every row that differs from the baseline's row at the
/// same index ships.
fn ref_diff<T: Clone + PartialEq>(base: &[T], new: &[T]) -> SectionDelta<T> {
    let changed = new
        .iter()
        .enumerate()
        .filter(|&(i, row)| base.get(i) != Some(row))
        .map(|(i, row)| (i as u32, row.clone()))
        .collect();
    SectionDelta {
        new_len: new.len() as u32,
        changed,
    }
}

/// Reference apply: base rows truncated or padded to the new length,
/// shipped rows written over them (the last one for an index wins), and
/// every position filled.
fn ref_apply<T: Clone>(d: &SectionDelta<T>, base: &[T]) -> Result<Vec<T>, CodecError> {
    let n = d.new_len as usize;
    let mut out: Vec<Option<T>> = base.iter().take(n).cloned().map(Some).collect();
    out.resize(n, None);
    for (i, row) in &d.changed {
        let slot = out.get_mut(*i as usize).ok_or(CodecError::DeltaMismatch)?;
        *slot = Some(row.clone());
    }
    out.into_iter()
        .map(|r| r.ok_or(CodecError::DeltaMismatch))
        .collect()
}

fn check_digest(p: &ProfileSnapshot) -> u64 {
    content_check(&encode_profile(p))
}

fn ref_profile_delta(
    base: &ProfileSnapshot,
    new: &ProfileSnapshot,
    base_seq: u64,
    seq: u64,
) -> ProfileDelta {
    ProfileDelta {
        pid: new.pid,
        node: new.node,
        base_seq,
        seq,
        taken_ns: new.taken_ns,
        comm: (base.comm != new.comm).then(|| new.comm.clone()),
        kernel_events: ref_diff(&base.kernel_events, &new.kernel_events),
        kernel_atomics: ref_diff(&base.kernel_atomics, &new.kernel_atomics),
        user_events: ref_diff(&base.user_events, &new.user_events),
        merged: ref_diff(&base.merged, &new.merged),
        kernel_wall: ref_diff(&base.kernel_wall, &new.kernel_wall),
        check: check_digest(new),
    }
}

fn ref_apply_delta(
    base: &ProfileSnapshot,
    d: &ProfileDelta,
) -> Result<ProfileSnapshot, CodecError> {
    if base.pid != d.pid || base.node != d.node {
        return Err(CodecError::DeltaMismatch);
    }
    let full = ProfileSnapshot {
        pid: d.pid,
        comm: d.comm.clone().unwrap_or_else(|| base.comm.clone()),
        node: d.node,
        taken_ns: d.taken_ns,
        kernel_events: ref_apply(&d.kernel_events, &base.kernel_events)?,
        kernel_atomics: ref_apply(&d.kernel_atomics, &base.kernel_atomics)?,
        user_events: ref_apply(&d.user_events, &base.user_events)?,
        merged: ref_apply(&d.merged, &base.merged)?,
        kernel_wall: ref_apply(&d.kernel_wall, &base.kernel_wall)?,
    };
    if check_digest(&full) != d.check {
        return Err(CodecError::DeltaMismatch);
    }
    Ok(full)
}

/// One edit to a delta section, making deltas the diff would never write:
/// shuffled or duplicated indices, rows shipped at arbitrary positions,
/// dropped rows, and section lengths off by a few.
#[derive(Debug, Clone)]
enum SectionEdit {
    Reverse,
    Duplicate(u32),
    Drop(u32),
    ShipAt { index: u32, pick: u32 },
    Len(i32),
}

fn arb_section_edit() -> impl Strategy<Value = SectionEdit> {
    prop_oneof![
        Just(SectionEdit::Reverse),
        any::<u32>().prop_map(SectionEdit::Duplicate),
        any::<u32>().prop_map(SectionEdit::Drop),
        (0..12u32, any::<u32>()).prop_map(|(index, pick)| SectionEdit::ShipAt { index, pick }),
        (-3..4i32).prop_map(SectionEdit::Len),
    ]
}

/// Applies `e` to one section; `pool` supplies rows to ship.
fn edit_section<T: Clone>(d: &mut SectionDelta<T>, e: &SectionEdit, pool: &[T]) {
    let n = d.changed.len();
    match *e {
        SectionEdit::Reverse => d.changed.reverse(),
        SectionEdit::Duplicate(k) if n > 0 => {
            let dup = d.changed[k as usize % n].clone();
            d.changed.push(dup);
        }
        SectionEdit::Drop(k) if n > 0 => {
            d.changed.remove(k as usize % n);
        }
        SectionEdit::ShipAt { index, pick } if !pool.is_empty() => {
            let row = pool[pick as usize % pool.len()].clone();
            d.changed.insert(pick as usize % (n + 1), (index, row));
        }
        SectionEdit::Len(by) => d.new_len = d.new_len.saturating_add_signed(by),
        _ => {}
    }
}

fn edit_delta(d: &mut ProfileDelta, section: usize, e: &SectionEdit, pool: &ProfileSnapshot) {
    match section {
        0 => edit_section(&mut d.kernel_events, e, &pool.kernel_events),
        1 => edit_section(&mut d.kernel_atomics, e, &pool.kernel_atomics),
        2 => edit_section(&mut d.user_events, e, &pool.user_events),
        3 => edit_section(&mut d.merged, e, &pool.merged),
        _ => edit_section(&mut d.kernel_wall, e, &pool.kernel_wall),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The byte delta is exactly the encoding of the reference struct diff
    /// — shrinking sections and `comm` changes included — and the struct
    /// adapter decodes to the reference delta.
    #[test]
    fn byte_delta_equals_reference_encoding(
        base in arb_snapshot(),
        muts in proptest::collection::vec(arb_mutation(), 0..10),
    ) {
        let mut new = base.clone();
        for m in &muts {
            apply_mutation(&mut new, m);
        }
        let want = ref_profile_delta(&base, &new, 5, 6);
        let bytes = EncodedProfile::encode(&base).delta(&EncodedProfile::encode(&new), 5, 6);
        prop_assert_eq!(&bytes, &encode_delta(&want));
        prop_assert_eq!(profile_delta(&base, &new, 5, 6), want);
    }

    /// On any well-formed delta — edited to ship out-of-order, duplicate or
    /// misplaced indices under off-by-a-few lengths, against the true or a
    /// tampered baseline — the byte apply succeeds exactly when the
    /// reference apply does, and then with the reference's bytes.
    #[test]
    fn byte_apply_agrees_with_reference(
        base in arb_snapshot(),
        muts in proptest::collection::vec(arb_mutation(), 0..8),
        edits in proptest::collection::vec((0..5usize, arb_section_edit()), 0..4),
        tamper in proptest::collection::vec(arb_mutation(), 0..2),
    ) {
        let mut new = base.clone();
        for m in &muts {
            apply_mutation(&mut new, m);
        }
        let mut d = ref_profile_delta(&base, &new, 1, 2);
        for (section, e) in &edits {
            edit_delta(&mut d, *section, e, &new);
        }
        let mut applied_to = base.clone();
        for m in &tamper {
            apply_mutation(&mut applied_to, m);
        }
        let bytes = encode_delta(&d);
        let got = EncodedProfile::encode(&applied_to).apply(&bytes);
        let want = ref_apply_delta(&applied_to, &decode_delta(&bytes).unwrap());
        prop_assert_eq!(got.is_ok(), want.is_ok(), "byte {:?} vs reference {:?}", got, want);
        if let (Ok(got), Ok(want)) = (&got, &want) {
            prop_assert_eq!(got.bytes(), encode_profile(want).as_slice());
        }
        prop_assert_eq!(apply_delta(&applied_to, &d).ok(), want.ok());
    }
}

fn empty<T>() -> SectionDelta<T> {
    SectionDelta {
        new_len: 0,
        changed: Vec::new(),
    }
}

/// Regression: an 87-byte delta whose first section claims `u32::MAX`
/// rows decodes, and applying it used to size a `u32::MAX`-slot buffer
/// (hundreds of GB: an allocation failure aborts the process).  It is now
/// rejected as corrupt before anything is allocated for it.
#[test]
fn hostile_section_length_is_rejected_before_allocating() {
    let base = ProfileSnapshot {
        pid: 7,
        comm: String::new(),
        ..Default::default()
    };
    let hostile = ProfileDelta {
        pid: 7,
        node: 0,
        base_seq: 1,
        seq: 2,
        taken_ns: 0,
        comm: None,
        kernel_events: SectionDelta {
            new_len: u32::MAX,
            changed: Vec::new(),
        },
        kernel_atomics: empty(),
        user_events: empty(),
        merged: empty(),
        kernel_wall: empty(),
        check: 0,
    };
    let bytes = encode_delta(&hostile);
    assert_eq!(bytes.len(), 87);
    assert_eq!(decode_delta(&bytes).as_ref(), Ok(&hostile));
    let corrupt = Err(CodecError::Corrupt("delta section longer than its rows"));
    assert_eq!(EncodedProfile::encode(&base).apply(&bytes), corrupt);
    assert_eq!(apply_delta(&base, &hostile).map(drop), corrupt.map(drop));
}
