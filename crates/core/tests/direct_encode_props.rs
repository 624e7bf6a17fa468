//! Property test: the direct kernel encoder (`encode_measurement`) writes
//! exactly the bytes `encode_profile` writes for a snapshot built by the
//! struct capture it replaced.  That capture is kept here as the reference
//! model and both are driven over random probe / batch-fold / reset
//! sequences, with registries whose names are unicode, empty, contain
//! spaces or collide with the `unknown_<id>` names of unregistered ids.

mod common;

use common::*;
use ktau_core::event::{EventKind, EventRegistry, Group};
use ktau_core::measure::TaskMeasurement;
use ktau_core::snapshot::{
    encode_measurement, encode_profile, AtomicRow, EventRow, MergedRow, ProfileSnapshot,
};
use ktau_core::time::Ns;
use ktau_core::wire::Writer;
use proptest::prelude::*;

/// The struct capture the direct encoder replaced: one owned `String` per
/// row, merged rows stably sorted by `(user, kernel)` name, wall rows
/// sorted.
fn ref_capture(
    pid: u32,
    comm: &str,
    node: u32,
    taken_ns: Ns,
    meas: &TaskMeasurement,
    registry: &EventRegistry,
) -> ProfileSnapshot {
    let name_of = |id| -> (String, Group) {
        registry
            .get(id)
            .map(|d| (d.name.clone(), d.group))
            .unwrap_or_else(|| (format!("unknown_{}", id), Group::Other))
    };
    let event_row = |(id, s): (_, &_)| {
        let (name, group) = name_of(id);
        EventRow {
            name,
            group,
            stats: *s,
        }
    };
    let mut merged: Vec<MergedRow> = meas
        .merged
        .iter()
        .map(|((u, k), s)| {
            let (kernel, kernel_group) = name_of(k);
            MergedRow {
                user: u.map(|id| name_of(id).0),
                kernel,
                kernel_group,
                count: s.count,
                ns: s.ns,
            }
        })
        .collect();
    merged.sort_by(|a, b| (&a.user, &a.kernel).cmp(&(&b.user, &b.kernel)));
    let mut kernel_wall: Vec<(Option<String>, Ns)> = meas
        .wall
        .iter()
        .map(|(u, ns)| (u.map(|id| name_of(id).0), ns))
        .collect();
    kernel_wall.sort();
    ProfileSnapshot {
        pid,
        comm: comm.to_owned(),
        node,
        taken_ns,
        kernel_events: meas.kernel.iter_entries().map(event_row).collect(),
        kernel_atomics: meas
            .kernel
            .iter_atomics()
            .map(|(id, s)| {
                let (name, group) = name_of(id);
                AtomicRow {
                    name,
                    group,
                    stats: *s,
                }
            })
            .collect(),
        user_events: meas.user.iter_entries().map(event_row).collect(),
        merged,
        kernel_wall,
    }
}

/// Event names: unicode, empty, spaces, escape characters, and literal
/// `unknown_ev<id>` names that tie with unregistered ids in the sorts.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::sample::select(
            [
                "",
                " ",
                "a b",
                "schedule",
                "sys_getpid",
                "-",
                "\\s",
                "日本語",
                "emoji🧵name",
                "unknown_ev3",
                "unknown_ev12",
                "unknown_ev30",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        ),
        "[a-c _]{0,4}",
    ]
}

fn arb_group() -> impl Strategy<Value = Group> {
    proptest::sample::select(Group::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn direct_encoder_matches_struct_capture(
        names in proptest::collection::vec((arb_name(), arb_group()), 0..48),
        kernel_ops in proptest::collection::vec(arb_pop(), 0..80),
        user_ops in proptest::collection::vec(arb_pop(), 0..60),
        merged_ops in proptest::collection::vec(arb_mop(), 0..60),
        wall_ops in proptest::collection::vec(arb_wop(), 0..40),
        comm in arb_name(),
        ids in (any::<u32>(), any::<u32>(), any::<u64>()),
    ) {
        // Registration stops short of the ids the tables use often enough
        // that unknown ids show up in every section.
        let mut reg = EventRegistry::new();
        for (name, group) in &names {
            if reg.lookup(name).is_none() {
                reg.register(name, *group, EventKind::EntryExit);
            }
        }
        let mut m = TaskMeasurement::profiling();
        drive_profile(&mut m.kernel, &kernel_ops);
        drive_profile(&mut m.user, &user_ops);
        drive_merged(&mut m.merged, &merged_ops);
        drive_wall(&mut m.wall, &wall_ops);

        let (pid, node, taken) = ids;
        let want = ref_capture(pid, &comm, node, taken, &m, &reg);
        let mut w = Writer::new();
        encode_measurement(&mut w, pid, &comm, node, taken, &m, &reg);
        prop_assert_eq!(w.as_slice(), encode_profile(&want).as_slice());
        prop_assert_eq!(ProfileSnapshot::capture(pid, &comm, node, taken, &m, &reg), want);
    }
}
