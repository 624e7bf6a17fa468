//! Serializable snapshots of per-process measurement data, plus the binary
//! and ASCII codecs used across the `/proc/ktau` boundary (paper §4.3–4.4:
//! libKtau provides "data conversion (ASCII to/from binary)").
//!
//! Snapshots resolve [`crate::event::EventId`]s to names so they remain
//! meaningful outside the kernel instance that produced them.
//!
//! This module alone knows the binary row layout.  The kernel writes a
//! profile's bytes straight from live measurement state
//! ([`encode_measurement`]); the KTAUD path keeps them as
//! [`EncodedProfile`]s and diffs, splices and compares rows as byte ranges,
//! so no decoded [`ProfileSnapshot`] exists between kernel and client
//! mirror.  Snapshots are the decoded view analysis code reads.

use crate::event::{EventId, EventRegistry, Group};
use crate::measure::TaskMeasurement;
use crate::profile::{AtomicStats, EntryExitStats};
use crate::time::Ns;
use crate::trace::{TracePoint, TraceRecord};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Magic bytes opening every binary-encoded snapshot.
pub const BINARY_MAGIC: &[u8; 4] = b"KTAU";
/// Binary format version.
pub const BINARY_VERSION: u16 = 1;

/// One entry/exit event row of a profile snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRow {
    /// Event name (registry-resolved).
    pub name: String,
    /// Instrumentation group.
    pub group: Group,
    /// Measured statistics.
    pub stats: EntryExitStats,
}

/// One atomic event row of a profile snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtomicRow {
    /// Event name.
    pub name: String,
    /// Instrumentation group.
    pub group: Group,
    /// Value statistics.
    pub stats: AtomicStats,
}

/// One merged (user routine × kernel event) row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedRow {
    /// Active user routine name, `None` when outside instrumented user code.
    pub user: Option<String>,
    /// Kernel event name.
    pub kernel: String,
    /// Kernel event group.
    pub kernel_group: Group,
    /// Attributed activation count.
    pub count: u64,
    /// Attributed inclusive nanoseconds.
    pub ns: Ns,
}

/// A complete per-process profile snapshot as read from `/proc/ktau/profile`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// Process id.
    pub pid: u32,
    /// Command name.
    pub comm: String,
    /// Node (host) the process ran on.
    pub node: u32,
    /// Virtual time of the snapshot.
    pub taken_ns: Ns,
    /// Kernel-mode entry/exit rows.
    pub kernel_events: Vec<EventRow>,
    /// Kernel-mode atomic rows.
    pub kernel_atomics: Vec<AtomicRow>,
    /// User-mode (TAU) rows.
    pub user_events: Vec<EventRow>,
    /// Merged user/kernel attribution rows.
    pub merged: Vec<MergedRow>,
    /// Non-overlapping kernel wall time per user routine (`None` = outside
    /// any instrumented routine).
    pub kernel_wall: Vec<(Option<String>, Ns)>,
}

impl ProfileSnapshot {
    /// Builds a snapshot from live measurement state, resolving names via the
    /// kernel's registry: the decode of [`encode_measurement`]'s bytes, so
    /// name resolution and row order live in that encoder alone.
    pub fn capture(
        pid: u32,
        comm: &str,
        node: u32,
        taken_ns: Ns,
        meas: &TaskMeasurement,
        registry: &EventRegistry,
    ) -> Self {
        let mut w = Writer::new();
        encode_measurement(&mut w, pid, comm, node, taken_ns, meas, registry);
        decode_profile(w.as_slice()).expect("encode_measurement writes a well-formed profile")
    }

    /// Non-overlapping kernel wall time attributed inside `user` routine.
    pub fn kernel_wall_in(&self, user: &str) -> Ns {
        self.kernel_wall
            .iter()
            .filter(|(u, _)| u.as_deref() == Some(user))
            .map(|(_, ns)| *ns)
            .sum()
    }

    /// Total kernel-mode inclusive time of outermost events, a rough "time in
    /// kernel" figure.
    pub fn kernel_total_ns(&self) -> Ns {
        self.kernel_events.iter().map(|r| r.stats.excl_ns).sum()
    }

    /// Looks up a kernel event row by name.
    pub fn kernel_event(&self, name: &str) -> Option<&EventRow> {
        self.kernel_events.iter().find(|r| r.name == name)
    }

    /// Looks up a user event row by name.
    pub fn user_event(&self, name: &str) -> Option<&EventRow> {
        self.user_events.iter().find(|r| r.name == name)
    }

    /// Sums kernel time attributed inside `user` routine, grouped by kernel
    /// group; returns `(group, count, ns)` rows sorted by descending time.
    pub fn call_groups_in(&self, user: &str) -> Vec<(Group, u64, Ns)> {
        let mut acc: std::collections::BTreeMap<Group, (u64, Ns)> = Default::default();
        for row in &self.merged {
            if row.user.as_deref() == Some(user) {
                let e = acc.entry(row.kernel_group).or_default();
                e.0 += row.count;
                e.1 += row.ns;
            }
        }
        let mut v: Vec<_> = acc.into_iter().map(|(g, (c, ns))| (g, c, ns)).collect();
        v.sort_by_key(|&(_, _, ns)| std::cmp::Reverse(ns));
        v
    }
}

/// A trace snapshot (one drain of `/proc/ktau/trace` for one process).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceSnapshot {
    /// Process id.
    pub pid: u32,
    /// Command name.
    pub comm: String,
    /// Node the process ran on.
    pub node: u32,
    /// Records lost to ring overwrite before this read.
    pub lost: u64,
    /// Drained records with names resolved.
    pub records: Vec<NamedTraceRecord>,
}

/// A trace record with its event name resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedTraceRecord {
    /// Virtual timestamp.
    pub ts_ns: Ns,
    /// Event name.
    pub name: String,
    /// Event group.
    pub group: Group,
    /// Entry / exit / atomic(value).
    pub point: TracePoint,
}

impl TraceSnapshot {
    /// Resolves raw records into a named snapshot.
    pub fn from_records(
        pid: u32,
        comm: &str,
        node: u32,
        lost: u64,
        records: &[TraceRecord],
        registry: &EventRegistry,
    ) -> Self {
        let named = records
            .iter()
            .map(|r| {
                let (name, group) = resolve(registry, r.event);
                NamedTraceRecord {
                    ts_ns: r.ts_ns,
                    name: name.into_owned(),
                    group,
                    point: r.point,
                }
            })
            .collect();
        TraceSnapshot {
            pid,
            comm: comm.to_owned(),
            node,
            lost,
            records: named,
        }
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

pub use crate::wire::CodecError;
use crate::wire::{Reader, Writer};

fn group_to_u8(g: Group) -> u8 {
    g as u8
}

fn group_from_u8(v: u8) -> Result<Group, CodecError> {
    // `Group::ALL` lists the groups in discriminant order.
    Group::ALL
        .get(v as usize)
        .copied()
        .ok_or(CodecError::BadField("group"))
}

/// An event's registered name and group; ids the registry does not know
/// read as `unknown_<id>` in [`Group::Other`].
fn resolve(registry: &EventRegistry, id: EventId) -> (Cow<'_, str>, Group) {
    match registry.get(id) {
        Some(d) => (Cow::Borrowed(d.name.as_str()), d.group),
        None => (Cow::Owned(format!("unknown_{id}")), Group::Other),
    }
}

// Row writers take borrowed fields, so the snapshot encoder and the direct
// kernel encoder share them.

fn write_header(w: &mut Writer, pid: u32, comm: &str, node: u32, taken_ns: Ns) {
    w.bytes(BINARY_MAGIC);
    w.u16(BINARY_VERSION);
    w.u32(pid);
    w.str(comm);
    w.u32(node);
    w.u64(taken_ns);
}

/// Reads a profile header: `(pid, comm, node, taken_ns)`.
fn read_header<'a>(r: &mut Reader<'a>) -> Result<(u32, &'a str, u32, Ns), CodecError> {
    if r.take(4)? != BINARY_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let ver = r.u16()?;
    if ver != BINARY_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    Ok((r.u32()?, r.str_ref()?, r.u32()?, r.u64()?))
}

fn write_event_row(w: &mut Writer, name: &str, group: Group, s: &EntryExitStats) {
    w.str(name);
    w.u8(group_to_u8(group));
    w.u64(s.count);
    w.u64(s.incl_ns);
    w.u64(s.excl_ns);
    w.u64(s.min_incl_ns);
    w.u64(s.max_incl_ns);
}

fn read_event_row(r: &mut Reader<'_>) -> Result<EventRow, CodecError> {
    Ok(EventRow {
        name: r.str()?,
        group: group_from_u8(r.u8()?)?,
        stats: EntryExitStats {
            count: r.u64()?,
            incl_ns: r.u64()?,
            excl_ns: r.u64()?,
            min_incl_ns: r.u64()?,
            max_incl_ns: r.u64()?,
        },
    })
}

fn write_atomic_row(w: &mut Writer, name: &str, group: Group, s: &AtomicStats) {
    w.str(name);
    w.u8(group_to_u8(group));
    w.u64(s.count);
    w.u64(s.sum);
    w.u64(s.min);
    w.u64(s.max);
}

fn read_atomic_row(r: &mut Reader<'_>) -> Result<AtomicRow, CodecError> {
    Ok(AtomicRow {
        name: r.str()?,
        group: group_from_u8(r.u8()?)?,
        stats: AtomicStats {
            count: r.u64()?,
            sum: r.u64()?,
            min: r.u64()?,
            max: r.u64()?,
        },
    })
}

fn write_opt_str(w: &mut Writer, s: Option<&str>) {
    match s {
        Some(s) => {
            w.u8(1);
            w.str(s);
        }
        None => w.u8(0),
    }
}

fn read_opt_str<'a>(r: &mut Reader<'a>, what: &'static str) -> Result<Option<&'a str>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str_ref()?)),
        _ => Err(CodecError::BadField(what)),
    }
}

/// [`read_opt_str`] without borrowing the string.
fn skip_opt_str(r: &mut Reader<'_>, what: &'static str) -> Result<(), CodecError> {
    match r.u8()? {
        0 => Ok(()),
        1 => r.skip_str(),
        _ => Err(CodecError::BadField(what)),
    }
}

fn write_merged_row(
    w: &mut Writer,
    user: Option<&str>,
    kernel: &str,
    group: Group,
    count: u64,
    ns: Ns,
) {
    write_opt_str(w, user);
    w.str(kernel);
    w.u8(group_to_u8(group));
    w.u64(count);
    w.u64(ns);
}

fn read_merged_row(r: &mut Reader<'_>) -> Result<MergedRow, CodecError> {
    Ok(MergedRow {
        user: read_opt_str(r, "merged user tag")?.map(str::to_owned),
        kernel: r.str()?,
        kernel_group: group_from_u8(r.u8()?)?,
        count: r.u64()?,
        ns: r.u64()?,
    })
}

fn write_wall_row(w: &mut Writer, user: Option<&str>, ns: Ns) {
    write_opt_str(w, user);
    w.u64(ns);
}

fn read_wall_row(r: &mut Reader<'_>) -> Result<(Option<String>, Ns), CodecError> {
    Ok((
        read_opt_str(r, "wall user tag")?.map(str::to_owned),
        r.u64()?,
    ))
}

/// Writes a `u32` row count followed by the rows, patching the count in
/// once the rows are written.
fn write_rows<T>(
    w: &mut Writer,
    rows: impl IntoIterator<Item = T>,
    write: impl Fn(&mut Writer, T),
) {
    let at = w.len();
    w.u32(0);
    let mut n = 0u32;
    for row in rows {
        write(w, row);
        n += 1;
    }
    w.set_u32(at, n);
}

/// Reads a `u32` row count followed by the rows.
fn read_rows<T>(
    r: &mut Reader<'_>,
    read: impl Fn(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rows.push(read(r)?);
    }
    Ok(rows)
}

/// Encodes a profile snapshot into the KTAU binary wire format.
pub fn encode_profile(p: &ProfileSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, p.pid, &p.comm, p.node, p.taken_ns);
    write_rows(&mut w, &p.kernel_events, |w, r| {
        write_event_row(w, &r.name, r.group, &r.stats)
    });
    write_rows(&mut w, &p.kernel_atomics, |w, r| {
        write_atomic_row(w, &r.name, r.group, &r.stats)
    });
    write_rows(&mut w, &p.user_events, |w, r| {
        write_event_row(w, &r.name, r.group, &r.stats)
    });
    write_rows(&mut w, &p.merged, |w, r| {
        write_merged_row(
            w,
            r.user.as_deref(),
            &r.kernel,
            r.kernel_group,
            r.count,
            r.ns,
        )
    });
    write_rows(&mut w, &p.kernel_wall, |w, (u, ns)| {
        write_wall_row(w, u.as_deref(), *ns)
    });
    w.into_vec()
}

/// Writes the binary profile of one task straight from its live
/// measurement state into `w` — the kernel side of `/proc/ktau/profile`.
/// Names are borrowed from the registry (ids it does not know read as
/// `unknown_<id>`); entry/exit and atomic rows follow event-id order,
/// merged and wall rows are sorted by name.  [`ProfileSnapshot::capture`]
/// is the decode of these bytes.
pub fn encode_measurement(
    w: &mut Writer,
    pid: u32,
    comm: &str,
    node: u32,
    taken_ns: Ns,
    meas: &TaskMeasurement,
    registry: &EventRegistry,
) {
    write_header(w, pid, comm, node, taken_ns);
    let event = |w: &mut Writer, (id, s): (EventId, &EntryExitStats)| {
        let (name, group) = resolve(registry, id);
        write_event_row(w, &name, group, s)
    };
    write_rows(w, meas.kernel.iter_entries(), event);
    write_rows(w, meas.kernel.iter_atomics(), |w, (id, s)| {
        let (name, group) = resolve(registry, id);
        write_atomic_row(w, &name, group, s)
    });
    write_rows(w, meas.user.iter_entries(), event);
    let user_name = |u: Option<EventId>| u.map(|id| resolve(registry, id).0);
    let mut merged: Vec<_> = meas
        .merged
        .iter()
        .map(|((u, k), s)| {
            let (kernel, group) = resolve(registry, k);
            (user_name(u), kernel, group, s)
        })
        .collect();
    merged.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    write_rows(w, &merged, |w, (u, k, group, s)| {
        write_merged_row(w, u.as_deref(), k, *group, s.count, s.ns)
    });
    let mut wall: Vec<_> = meas.wall.iter().map(|(u, ns)| (user_name(u), ns)).collect();
    wall.sort();
    write_rows(w, &wall, |w, (u, ns)| write_wall_row(w, u.as_deref(), *ns));
}

/// Decodes a binary profile snapshot.
pub fn decode_profile(bytes: &[u8]) -> Result<ProfileSnapshot, CodecError> {
    let mut r = Reader::new(bytes);
    let (pid, comm, node, taken_ns) = read_header(&mut r)?;
    let p = ProfileSnapshot {
        pid,
        comm: comm.to_owned(),
        node,
        taken_ns,
        kernel_events: read_rows(&mut r, read_event_row)?,
        kernel_atomics: read_rows(&mut r, read_atomic_row)?,
        user_events: read_rows(&mut r, read_event_row)?,
        merged: read_rows(&mut r, read_merged_row)?,
        kernel_wall: read_rows(&mut r, read_wall_row)?,
    };
    r.expect_end()?;
    Ok(p)
}

// ---------------------------------------------------------------------------
// Encoded profiles: the KTAUD representation
// ---------------------------------------------------------------------------

/// Row sections of a profile, in wire order: kernel entry/exit, kernel
/// atomic, user entry/exit, merged, kernel wall.
const SECTIONS: usize = 5;

type RowCheck = fn(&mut Reader<'_>) -> Result<(), CodecError>;

/// Per section, in wire order: checks one row as its reader would, failing
/// with the same error, without decoding its numbers.
const ROW_CHECKS: [RowCheck; SECTIONS] = [
    |r| check_named_row(r, 40),
    |r| check_named_row(r, 32),
    |r| check_named_row(r, 40),
    |r| {
        skip_opt_str(r, "merged user tag")?;
        check_named_row(r, 16)
    },
    |r| {
        skip_opt_str(r, "wall user tag")?;
        r.take(8).map(drop)
    },
];

/// Checks a name, a group and `numbers` bytes of fixed-width fields.
fn check_named_row(r: &mut Reader<'_>, numbers: usize) -> Result<(), CodecError> {
    r.skip_str()?;
    group_from_u8(r.u8()?)?;
    r.take(numbers).map(drop)
}

/// Byte offset of the pid: after the magic and the version.
const PID_AT: usize = 6;
/// Byte offset of the comm's length prefix.
const COMM_AT: usize = 10;

/// A binary profile held as its bytes plus the byte offset of every row —
/// what the KTAUD server and each client mirror store.  Deltas are computed
/// by comparing row byte ranges ([`EncodedProfile::delta`]) and applied by
/// splicing them ([`EncodedProfile::apply`]), with output byte-identical to
/// the [`ProfileDelta`] struct codec.  Every instance holds a profile
/// [`decode_profile`] accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedProfile {
    bytes: Vec<u8>,
    /// Row boundaries: per section in wire order, the start offset of each
    /// row followed by the offset where the section's last row ends.
    bounds: Vec<usize>,
    /// Index in `bounds` where each section's boundaries begin.
    first: [usize; SECTIONS],
}

impl EncodedProfile {
    /// Checks `bytes` and indexes their rows.  Accepts exactly what
    /// [`decode_profile`] accepts, failing with the same [`CodecError`].
    pub fn parse(bytes: Vec<u8>) -> Result<Self, CodecError> {
        let mut r = Reader::new(&bytes);
        read_header(&mut r)?;
        let mut bounds = Vec::new();
        let mut first = [0; SECTIONS];
        for (s, check) in ROW_CHECKS.iter().enumerate() {
            let n = r.u32()? as usize;
            first[s] = bounds.len();
            bounds.reserve(n.min(4096) + 1);
            for _ in 0..n {
                bounds.push(r.position());
                check(&mut r)?;
            }
            bounds.push(r.position());
        }
        r.expect_end()?;
        Ok(EncodedProfile {
            bytes,
            bounds,
            first,
        })
    }

    /// Encodes a decoded snapshot.
    pub fn encode(p: &ProfileSnapshot) -> Self {
        Self::parse(encode_profile(p)).expect("encode_profile writes a well-formed profile")
    }

    /// The `encode_profile` bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the snapshot these bytes encode.
    pub fn decode(&self) -> ProfileSnapshot {
        decode_profile(&self.bytes).expect("an EncodedProfile holds a well-formed profile")
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("4 bytes"))
    }

    fn pid(&self) -> u32 {
        self.u32_at(PID_AT)
    }

    /// End of the length-prefixed comm, where the node field begins.
    fn comm_end(&self) -> usize {
        COMM_AT + 4 + self.u32_at(COMM_AT) as usize
    }

    fn node(&self) -> u32 {
        self.u32_at(self.comm_end())
    }

    /// Offset of the `taken_ns` field.
    fn taken_at(&self) -> usize {
        self.comm_end() + 4
    }

    /// Section `s`'s row boundaries: one more than its row count.
    fn section(&self, s: usize) -> &[usize] {
        let end = self.first.get(s + 1).copied().unwrap_or(self.bounds.len());
        &self.bounds[self.first[s]..end]
    }

    fn len(&self, s: usize) -> usize {
        self.section(s).len() - 1
    }

    fn rows(&self, s: usize) -> impl Iterator<Item = &[u8]> {
        self.section(s).windows(2).map(|b| &self.bytes[b[0]..b[1]])
    }

    fn row(&self, s: usize, i: usize) -> Option<&[u8]> {
        let b = self.section(s);
        (i + 1 < b.len()).then(|| &self.bytes[b[i]..b[i + 1]])
    }

    /// Content equality ignoring the capture timestamp: byte equality
    /// outside the `taken_ns` field.
    pub fn same_content(&self, other: &EncodedProfile) -> bool {
        let t = self.taken_at();
        self.bytes.len() == other.bytes.len()
            && self.bytes[..t] == other.bytes[..t]
            && self.bytes[t + 8..] == other.bytes[t + 8..]
    }

    /// The `KTAD` delta from this profile (sequence `base_seq`) to `new`
    /// (sequence `seq`) of the same process: every row whose bytes differ
    /// from the baseline's row at the same index ships.  Byte-identical to
    /// `encode_delta(&profile_delta(..))` of the decoded pair.
    pub fn delta(&self, new: &EncodedProfile, base_seq: u64, seq: u64) -> Vec<u8> {
        debug_assert_eq!(self.pid(), new.pid(), "delta across different pids");
        debug_assert_eq!(self.node(), new.node(), "delta across different nodes");
        let mut w = Writer::new();
        w.bytes(DELTA_MAGIC);
        w.u16(DELTA_VERSION);
        w.u32(new.pid());
        w.u32(new.node());
        w.u64(base_seq);
        w.u64(seq);
        w.bytes(&new.bytes[new.taken_at()..new.taken_at() + 8]);
        let comm = &new.bytes[COMM_AT..new.comm_end()];
        if comm == &self.bytes[COMM_AT..self.comm_end()] {
            w.u8(0);
        } else {
            w.u8(1);
            w.bytes(comm);
        }
        for s in 0..SECTIONS {
            w.u32(new.len(s) as u32);
            let mut base = self.rows(s);
            let changed = new
                .rows(s)
                .enumerate()
                .filter(|&(_, row)| base.next() != Some(row));
            write_rows(&mut w, changed, |w, (i, row)| {
                w.u32(i as u32);
                w.bytes(row);
            });
        }
        w.u64(check_digest(&new.bytes));
        w.into_vec()
    }

    /// Applies a `KTAD` delta to this baseline, yielding the profile it
    /// describes.  The delta is checked as [`decode_delta`] checks it, then
    /// base rows and shipped rows are spliced into new bytes, and the
    /// delta's check digest is verified over them.
    ///
    /// Fails with [`CodecError::Corrupt`] when a section claims more rows
    /// than the baseline and the delta hold together (before allocating for
    /// it), and with [`CodecError::DeltaMismatch`] when this is not the
    /// baseline the delta was computed against: identity fields disagree, a
    /// shipped index is out of range, an appended row is missing, or the
    /// result fails the check digest.
    pub fn apply(&self, delta: &[u8]) -> Result<EncodedProfile, CodecError> {
        let d = DeltaView::parse(delta)?;
        if d.pid != self.pid() || d.node != self.node() {
            return Err(CodecError::DeltaMismatch);
        }
        for s in 0..SECTIONS {
            if d.new_len[s] as usize > self.len(s) + d.shipped(s).len() {
                return Err(CodecError::Corrupt("delta section longer than its rows"));
            }
        }
        let mut w = Writer::with_capacity(self.bytes.len() + delta.len());
        w.bytes(&self.bytes[..COMM_AT]);
        match d.comm {
            Some(comm) => w.str(comm),
            None => w.bytes(&self.bytes[COMM_AT..self.comm_end()]),
        }
        w.u32(d.node);
        w.u64(d.taken_ns);
        let mut bounds = Vec::with_capacity(self.bounds.len() + d.shipped.len());
        let mut first = [0; SECTIONS];
        let mut src: Vec<Option<&[u8]>> = Vec::new();
        for (s, section_start) in first.iter_mut().enumerate() {
            // Base rows under the new length, overwritten by shipped rows
            // (the last one shipped for an index wins).
            src.clear();
            src.extend((0..d.new_len[s] as usize).map(|i| self.row(s, i)));
            for &(i, row) in d.shipped(s) {
                *src.get_mut(i as usize).ok_or(CodecError::DeltaMismatch)? = Some(row);
            }
            w.u32(d.new_len[s]);
            *section_start = bounds.len();
            for row in &src {
                bounds.push(w.len());
                w.bytes(row.ok_or(CodecError::DeltaMismatch)?);
            }
            bounds.push(w.len());
        }
        let bytes = w.into_vec();
        if check_digest(&bytes) != d.check {
            return Err(CodecError::DeltaMismatch);
        }
        Ok(EncodedProfile {
            bytes,
            bounds,
            first,
        })
    }
}

/// A `KTAD` delta checked field by field as [`decode_delta`] checks it,
/// with each shipped row left as a byte range of the input.
struct DeltaView<'a> {
    pid: u32,
    node: u32,
    taken_ns: Ns,
    comm: Option<&'a str>,
    /// Per section: its length after the delta.
    new_len: [u32; SECTIONS],
    /// Shipped `(index, row)` pairs of every section, in wire order.
    shipped: Vec<(u32, &'a [u8])>,
    /// Per section: where its run in `shipped` ends.
    shipped_end: [usize; SECTIONS],
    check: u64,
}

impl<'a> DeltaView<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != DELTA_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let ver = r.u16()?;
        if ver != DELTA_VERSION {
            return Err(CodecError::BadVersion(ver));
        }
        let pid = r.u32()?;
        let node = r.u32()?;
        r.u64()?; // base_seq
        r.u64()?; // seq
        let taken_ns = r.u64()?;
        let comm = read_opt_str(&mut r, "delta comm tag")?;
        let mut new_len = [0; SECTIONS];
        let mut shipped = Vec::new();
        let mut shipped_end = [0; SECTIONS];
        for (s, check) in ROW_CHECKS.iter().enumerate() {
            new_len[s] = r.u32()?;
            for _ in 0..r.u32()? {
                let i = r.u32()?;
                let at = r.position();
                check(&mut r)?;
                shipped.push((i, &bytes[at..r.position()]));
            }
            shipped_end[s] = shipped.len();
        }
        let check = r.u64()?;
        r.expect_end()?;
        Ok(DeltaView {
            pid,
            node,
            taken_ns,
            comm,
            new_len,
            shipped,
            shipped_end,
            check,
        })
    }

    /// Section `s`'s shipped `(index, row)` pairs.
    fn shipped(&self, s: usize) -> &[(u32, &'a [u8])] {
        let start = if s == 0 { 0 } else { self.shipped_end[s - 1] };
        &self.shipped[start..self.shipped_end[s]]
    }
}

// ---------------------------------------------------------------------------
// Incremental deltas (KTAUD monitoring service)
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary-encoded profile delta.
pub const DELTA_MAGIC: &[u8; 4] = b"KTAD";
/// Delta format version.  Version 2 replaced version 1's FNV-1a check
/// digest with [`crate::digest::content_check`]; version 1 is rejected.
pub const DELTA_VERSION: u16 = 2;

/// An index-based diff of one snapshot section: the rows whose content
/// changed (or that are new) since the baseline, plus the section's new
/// length.  Profile sections are append-mostly (a row's identity is its
/// position; `Profile` hands out dense ids and the encoder sorts stably), so
/// positional diffs stay small for steady-state sweeps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SectionDelta<T> {
    /// Length of the section after applying the delta (sections shrink only
    /// on profile reset).
    pub new_len: u32,
    /// `(index, new row)` pairs for every changed or appended row.
    pub changed: Vec<(u32, T)>,
}

/// An incremental update from one profile snapshot (`base_seq`) to the next
/// (`seq`), as shipped by the KTAUD monitoring service to a subscribed
/// client — the decoded form of a `KTAD` delta.  The `check` digest is
/// [`crate::digest::content_check`] of the *binary encoding of the full new
/// snapshot*: applying a delta verifies it over the reconstruction, making
/// `apply(base, delta) == full` a checked invariant — a client can never
/// silently drift from the server's view.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDelta {
    /// Process id (must match the baseline's).
    pub pid: u32,
    /// Node the process runs on (must match the baseline's).
    pub node: u32,
    /// Sequence number of the baseline snapshot this delta applies to.
    pub base_seq: u64,
    /// Sequence number of the snapshot reached after applying this delta.
    pub seq: u64,
    /// Virtual time of the new snapshot.
    pub taken_ns: Ns,
    /// New command name when it changed, `None` otherwise.
    pub comm: Option<String>,
    /// Kernel entry/exit row changes.
    pub kernel_events: SectionDelta<EventRow>,
    /// Kernel atomic row changes.
    pub kernel_atomics: SectionDelta<AtomicRow>,
    /// User (TAU) row changes.
    pub user_events: SectionDelta<EventRow>,
    /// Merged-attribution row changes.
    pub merged: SectionDelta<MergedRow>,
    /// Kernel wall-time row changes.
    pub kernel_wall: SectionDelta<(Option<String>, Ns)>,
    /// `content_check` of `encode_profile(full new snapshot)`.
    pub check: u64,
}

impl ProfileDelta {
    /// Total number of changed rows across all sections — the payload a
    /// client actually receives beyond the fixed header.
    pub fn changed_rows(&self) -> usize {
        self.kernel_events.changed.len()
            + self.kernel_atomics.changed.len()
            + self.user_events.changed.len()
            + self.merged.changed.len()
            + self.kernel_wall.changed.len()
    }
}

/// The delta check value of a profile's binary encoding.
fn check_digest(encoded: &[u8]) -> u64 {
    crate::digest::content_check(encoded)
}

/// Computes the delta from `base` (sequence `base_seq`) to `new` (sequence
/// `seq`).  Both snapshots must describe the same process on the same node.
/// An adapter over [`EncodedProfile::delta`].
pub fn profile_delta(
    base: &ProfileSnapshot,
    new: &ProfileSnapshot,
    base_seq: u64,
    seq: u64,
) -> ProfileDelta {
    let bytes = EncodedProfile::encode(base).delta(&EncodedProfile::encode(new), base_seq, seq);
    decode_delta(&bytes).expect("EncodedProfile::delta writes a well-formed delta")
}

/// Reconstructs the full snapshot `delta` describes from its baseline.  An
/// adapter over [`EncodedProfile::apply`], failing as it does.
pub fn apply_delta(
    base: &ProfileSnapshot,
    delta: &ProfileDelta,
) -> Result<ProfileSnapshot, CodecError> {
    EncodedProfile::encode(base)
        .apply(&encode_delta(delta))
        .map(|full| full.decode())
}

fn write_section<T>(w: &mut Writer, s: &SectionDelta<T>, write_row: impl Fn(&mut Writer, &T)) {
    w.u32(s.new_len);
    write_rows(w, &s.changed, |w, (i, row)| {
        w.u32(*i);
        write_row(w, row);
    });
}

fn read_section<T>(
    r: &mut Reader<'_>,
    read_row: impl Fn(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<SectionDelta<T>, CodecError> {
    let new_len = r.u32()?;
    let changed = read_rows(r, |r| Ok((r.u32()?, read_row(r)?)))?;
    Ok(SectionDelta { new_len, changed })
}

/// Encodes a profile delta into the versioned binary wire format.
pub fn encode_delta(d: &ProfileDelta) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(DELTA_MAGIC);
    w.u16(DELTA_VERSION);
    w.u32(d.pid);
    w.u32(d.node);
    w.u64(d.base_seq);
    w.u64(d.seq);
    w.u64(d.taken_ns);
    write_opt_str(&mut w, d.comm.as_deref());
    write_section(&mut w, &d.kernel_events, |w, r| {
        write_event_row(w, &r.name, r.group, &r.stats)
    });
    write_section(&mut w, &d.kernel_atomics, |w, r| {
        write_atomic_row(w, &r.name, r.group, &r.stats)
    });
    write_section(&mut w, &d.user_events, |w, r| {
        write_event_row(w, &r.name, r.group, &r.stats)
    });
    write_section(&mut w, &d.merged, |w, r| {
        write_merged_row(
            w,
            r.user.as_deref(),
            &r.kernel,
            r.kernel_group,
            r.count,
            r.ns,
        )
    });
    write_section(&mut w, &d.kernel_wall, |w, (u, ns)| {
        write_wall_row(w, u.as_deref(), *ns)
    });
    w.u64(d.check);
    w.into_vec()
}

/// Decodes a binary profile delta, rejecting trailing bytes.
pub fn decode_delta(bytes: &[u8]) -> Result<ProfileDelta, CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != DELTA_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let ver = r.u16()?;
    if ver != DELTA_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    let d = ProfileDelta {
        pid: r.u32()?,
        node: r.u32()?,
        base_seq: r.u64()?,
        seq: r.u64()?,
        taken_ns: r.u64()?,
        comm: read_opt_str(&mut r, "delta comm tag")?.map(str::to_owned),
        kernel_events: read_section(&mut r, read_event_row)?,
        kernel_atomics: read_section(&mut r, read_atomic_row)?,
        user_events: read_section(&mut r, read_event_row)?,
        merged: read_section(&mut r, read_merged_row)?,
        kernel_wall: read_section(&mut r, read_wall_row)?,
        check: r.u64()?,
    };
    r.expect_end()?;
    Ok(d)
}

// ---------------------------------------------------------------------------
// ASCII codec
// ---------------------------------------------------------------------------

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace(' ', "\\s")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('s') => out.push(' '),
                Some('n') => out.push('\n'),
                Some('-') => out.push('-'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Encodes a profile snapshot in the line-oriented ASCII format libKtau's
/// conversion helpers produce for command-line clients.
pub fn profile_to_ascii(p: &ProfileSnapshot) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "ktau-profile v{BINARY_VERSION} pid {} comm {} node {} taken_ns {}\n",
        p.pid,
        escape(&p.comm),
        p.node,
        p.taken_ns
    ));
    for r in &p.kernel_events {
        s.push_str(&format!(
            "K {} {} {} {} {} {} {}\n",
            escape(&r.name),
            group_to_u8(r.group),
            r.stats.count,
            r.stats.incl_ns,
            r.stats.excl_ns,
            r.stats.min_incl_ns,
            r.stats.max_incl_ns
        ));
    }
    for r in &p.kernel_atomics {
        s.push_str(&format!(
            "A {} {} {} {} {} {}\n",
            escape(&r.name),
            group_to_u8(r.group),
            r.stats.count,
            r.stats.sum,
            r.stats.min,
            r.stats.max
        ));
    }
    for r in &p.user_events {
        s.push_str(&format!(
            "U {} {} {} {} {} {} {}\n",
            escape(&r.name),
            group_to_u8(r.group),
            r.stats.count,
            r.stats.incl_ns,
            r.stats.excl_ns,
            r.stats.min_incl_ns,
            r.stats.max_incl_ns
        ));
    }
    for r in &p.merged {
        // A literal routine name "-" must not collide with the None sentinel.
        let user_field = match r.user.as_deref() {
            None => "-".to_owned(),
            Some("-") => "\\-".to_owned(),
            Some(u) => escape(u),
        };
        s.push_str(&format!(
            "M {} {} {} {} {}\n",
            user_field,
            escape(&r.kernel),
            group_to_u8(r.kernel_group),
            r.count,
            r.ns
        ));
    }
    for (u, ns) in &p.kernel_wall {
        let user_field = match u.as_deref() {
            None => "-".to_owned(),
            Some("-") => "\\-".to_owned(),
            Some(u) => escape(u),
        };
        s.push_str(&format!("W {user_field} {ns}\n"));
    }
    s
}

fn parse_u64(s: &str) -> Result<u64, CodecError> {
    s.parse().map_err(|_| CodecError::BadField("number"))
}

fn parse_stats(fields: &[&str]) -> Result<EntryExitStats, CodecError> {
    if fields.len() != 5 {
        return Err(CodecError::Truncated);
    }
    Ok(EntryExitStats {
        count: parse_u64(fields[0])?,
        incl_ns: parse_u64(fields[1])?,
        excl_ns: parse_u64(fields[2])?,
        min_incl_ns: parse_u64(fields[3])?,
        max_incl_ns: parse_u64(fields[4])?,
    })
}

/// Parses the ASCII profile format back into a snapshot.
pub fn profile_from_ascii(text: &str) -> Result<ProfileSnapshot, CodecError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(CodecError::Truncated)?;
    // header layout: ktau-profile v1 pid N comm C node N taken_ns N
    let h: Vec<&str> = header.split(' ').collect();
    if h.len() != 10 || h[0] != "ktau-profile" || h[2] != "pid" || h[4] != "comm" {
        return Err(CodecError::BadMagic);
    }
    let ver: u16 = h[1]
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or(CodecError::BadField("version"))?;
    if ver != BINARY_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    let mut p = ProfileSnapshot {
        pid: parse_u64(h[3])? as u32,
        comm: unescape(h[5]),
        node: parse_u64(h[7])? as u32,
        taken_ns: parse_u64(h[9])?,
        ..Default::default()
    };
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(' ').collect();
        match f[0] {
            "K" | "U" => {
                if f.len() != 8 {
                    return Err(CodecError::Truncated);
                }
                let row = EventRow {
                    name: unescape(f[1]),
                    group: group_from_u8(parse_u64(f[2])? as u8)?,
                    stats: parse_stats(&f[3..8])?,
                };
                if f[0] == "K" {
                    p.kernel_events.push(row);
                } else {
                    p.user_events.push(row);
                }
            }
            "A" => {
                if f.len() != 7 {
                    return Err(CodecError::Truncated);
                }
                p.kernel_atomics.push(AtomicRow {
                    name: unescape(f[1]),
                    group: group_from_u8(parse_u64(f[2])? as u8)?,
                    stats: AtomicStats {
                        count: parse_u64(f[3])?,
                        sum: parse_u64(f[4])?,
                        min: parse_u64(f[5])?,
                        max: parse_u64(f[6])?,
                    },
                });
            }
            "M" => {
                if f.len() != 6 {
                    return Err(CodecError::Truncated);
                }
                p.merged.push(MergedRow {
                    user: if f[1] == "-" {
                        None
                    } else {
                        Some(unescape(f[1]))
                    },
                    kernel: unescape(f[2]),
                    kernel_group: group_from_u8(parse_u64(f[3])? as u8)?,
                    count: parse_u64(f[4])?,
                    ns: parse_u64(f[5])?,
                });
            }
            "W" => {
                if f.len() != 3 {
                    return Err(CodecError::Truncated);
                }
                p.kernel_wall.push((
                    if f[1] == "-" {
                        None
                    } else {
                        Some(unescape(f[1]))
                    },
                    parse_u64(f[2])?,
                ));
            }
            _ => return Err(CodecError::BadField("record tag")),
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::measure::{ProbeEngine, TaskMeasurement};

    fn sample_snapshot() -> ProfileSnapshot {
        let mut reg = EventRegistry::new();
        let sched = reg.register("schedule", Group::Scheduler, EventKind::EntryExit);
        let tcp = reg.register("tcp_v4_rcv", Group::Tcp, EventKind::EntryExit);
        let bytes = reg.register("net_rx_bytes", Group::Tcp, EventKind::Atomic);
        let mpi = reg.register("MPI_Recv", Group::Mpi, EventKind::EntryExit);
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        eng.user_entry(&mut m, mpi, Group::Mpi, 0);
        eng.kernel_entry(&mut m, tcp, Group::Tcp, 100);
        eng.kernel_atomic(&mut m, bytes, Group::Tcp, 1460, 150);
        eng.kernel_exit(&mut m, tcp, Group::Tcp, 400);
        eng.kernel_interval(&mut m, sched, Group::Scheduler, 5_000, 6_000);
        eng.user_exit(&mut m, mpi, Group::Mpi, 10_000);
        ProfileSnapshot::capture(4242, "lu.C.128 proc", 61, 10_000, &m, &reg)
    }

    #[test]
    fn capture_resolves_names_and_groups() {
        let p = sample_snapshot();
        assert_eq!(p.pid, 4242);
        assert!(p.kernel_event("tcp_v4_rcv").is_some());
        assert!(p.kernel_event("schedule").is_some());
        assert_eq!(p.user_event("MPI_Recv").unwrap().stats.count, 1);
        assert_eq!(p.kernel_atomics[0].stats.sum, 1460);
        let groups = p.call_groups_in("MPI_Recv");
        assert_eq!(groups.len(), 2);
        // schedule (5000ns) should outrank tcp (300ns)
        assert_eq!(groups[0].0, Group::Scheduler);
        assert_eq!(groups[0].2, 5_000);
    }

    #[test]
    fn binary_roundtrip() {
        let p = sample_snapshot();
        let bytes = encode_profile(&p);
        let q = decode_profile(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let p = sample_snapshot();
        let mut bytes = encode_profile(&p);
        bytes[0] = b'X';
        assert_eq!(decode_profile(&bytes), Err(CodecError::BadMagic));
        let mut bytes = encode_profile(&p);
        bytes[4] = 99;
        assert!(matches!(
            decode_profile(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn binary_rejects_truncation_everywhere() {
        let p = sample_snapshot();
        let bytes = encode_profile(&p);
        for cut in 0..bytes.len() {
            assert!(
                decode_profile(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let p = sample_snapshot();
        let mut bytes = encode_profile(&p);
        bytes.push(0);
        assert_eq!(decode_profile(&bytes), Err(CodecError::TrailingBytes));
        // Two concatenated valid profiles are not one valid profile.
        let mut twice = encode_profile(&p);
        twice.extend_from_slice(&encode_profile(&p));
        assert_eq!(decode_profile(&twice), Err(CodecError::TrailingBytes));
    }

    /// A second snapshot derived from the sample by more probe activity.
    fn grown_snapshot() -> ProfileSnapshot {
        let mut p = sample_snapshot();
        p.taken_ns += 5_000;
        p.kernel_events[0].stats.count += 3;
        p.kernel_events[0].stats.incl_ns += 900;
        p.kernel_events.push(EventRow {
            name: "do_irq".into(),
            group: Group::Irq,
            stats: EntryExitStats {
                count: 1,
                incl_ns: 50,
                excl_ns: 50,
                min_incl_ns: 50,
                max_incl_ns: 50,
            },
        });
        p
    }

    #[test]
    fn delta_apply_reconstructs_full_snapshot() {
        let base = sample_snapshot();
        let new = grown_snapshot();
        let d = profile_delta(&base, &new, 3, 4);
        assert_eq!(d.base_seq, 3);
        assert_eq!(d.seq, 4);
        // Only the touched + appended kernel rows ship.
        assert_eq!(d.kernel_events.changed.len(), 2);
        assert!(d.kernel_atomics.changed.is_empty());
        let full = apply_delta(&base, &d).unwrap();
        assert_eq!(full, new);
        assert_eq!(encode_profile(&full), encode_profile(&new));
    }

    #[test]
    fn delta_against_wrong_baseline_is_rejected() {
        let base = sample_snapshot();
        let new = grown_snapshot();
        let d = profile_delta(&base, &new, 0, 1);
        // A baseline whose unchanged rows differ fails the check digest.
        let mut wrong = base.clone();
        wrong.kernel_atomics[0].stats.sum += 1;
        assert_eq!(apply_delta(&wrong, &d), Err(CodecError::DeltaMismatch));
        // A different process entirely fails on identity.
        let mut other = base.clone();
        other.pid += 1;
        assert_eq!(apply_delta(&other, &d), Err(CodecError::DeltaMismatch));
    }

    #[test]
    fn delta_handles_shrinking_sections_on_reset() {
        // A profile reset empties the sections; the delta must carry that.
        let base = grown_snapshot();
        let mut reset = base.clone();
        reset.kernel_events.clear();
        reset.user_events.clear();
        reset.merged.clear();
        reset.taken_ns += 1;
        let d = profile_delta(&base, &reset, 7, 8);
        assert_eq!(d.kernel_events.new_len, 0);
        assert_eq!(apply_delta(&base, &d).unwrap(), reset);
    }

    #[test]
    fn delta_binary_roundtrip_and_rejections() {
        let base = sample_snapshot();
        let new = grown_snapshot();
        let d = profile_delta(&base, &new, 1, 2);
        let bytes = encode_delta(&d);
        assert_eq!(decode_delta(&bytes).unwrap(), d);
        // Truncation sweep: every strict prefix fails.
        for cut in 0..bytes.len() {
            assert!(
                decode_delta(&bytes[..cut]).is_err(),
                "decode of {cut}-byte delta prefix should fail"
            );
        }
        // Trailing bytes fail.
        let mut padded = bytes.clone();
        padded.push(7);
        assert_eq!(decode_delta(&padded), Err(CodecError::TrailingBytes));
        // Profile and delta magics are not interchangeable.
        assert_eq!(decode_profile(&bytes), Err(CodecError::BadMagic));
        assert_eq!(
            decode_delta(&encode_profile(&base)),
            Err(CodecError::BadMagic)
        );
        // A version 1 delta (FNV-1a check) is refused by both decoders.
        let mut v1 = bytes.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode_delta(&v1), Err(CodecError::BadVersion(1)));
        assert_eq!(
            EncodedProfile::encode(&base).apply(&v1),
            Err(CodecError::BadVersion(1))
        );
    }

    #[test]
    fn same_content_ignores_only_the_timestamp() {
        let base = sample_snapshot();
        let enc = EncodedProfile::encode(&base);
        let mut later = base.clone();
        later.taken_ns += 1;
        assert!(enc.same_content(&EncodedProfile::encode(&later)));
        // A longer comm shifts every later field; so does a changed row.
        later.comm.push('x');
        assert!(!enc.same_content(&EncodedProfile::encode(&later)));
        let mut moved = base.clone();
        moved.kernel_events[0].stats.count += 1;
        assert!(!enc.same_content(&EncodedProfile::encode(&moved)));
    }

    #[test]
    fn ascii_roundtrip() {
        let p = sample_snapshot();
        let text = profile_to_ascii(&p);
        let q = profile_from_ascii(&text).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn ascii_escapes_spaces_in_names() {
        let p = sample_snapshot(); // comm contains a space
        let text = profile_to_ascii(&p);
        assert!(text.contains("lu.C.128\\sproc"));
        assert_eq!(profile_from_ascii(&text).unwrap().comm, "lu.C.128 proc");
    }

    #[test]
    fn ascii_rejects_garbage() {
        assert!(profile_from_ascii("").is_err());
        assert!(profile_from_ascii("not a profile\n").is_err());
        let p = sample_snapshot();
        let text = profile_to_ascii(&p).replace("K ", "Z ");
        assert!(profile_from_ascii(&text).is_err());
    }

    #[test]
    fn trace_snapshot_resolves_names() {
        let mut reg = EventRegistry::new();
        let tcp = reg.register("tcp_v4_rcv", Group::Tcp, EventKind::EntryExit);
        let recs = vec![TraceRecord {
            ts_ns: 7,
            event: tcp,
            point: TracePoint::Entry,
        }];
        let t = TraceSnapshot::from_records(1, "x", 0, 3, &recs, &reg);
        assert_eq!(t.records[0].name, "tcp_v4_rcv");
        assert_eq!(t.lost, 3);
    }
}
