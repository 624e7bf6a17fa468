//! Decoder totality for `KTAS` engine images: a seeded mutation loop over
//! snapshot images of mid-run clusters — truncated, bit-flipped, extended
//! and count-inflated — must always make [`Cluster::resume`] return `Ok` or
//! a `CodecError`.  It must never panic, and never allocate in proportion
//! to a count or size the image merely claims.

#[path = "../../core/tests/common/mutation.rs"]
mod mutation;

use ktau_core::time::NS_PER_SEC;
use ktau_net::{FaultPlan, FaultSpec, LinkMatch};
use ktau_oskern::{
    Cluster, ClusterSnapshot, ClusterSpec, DegradeSpec, IrqStormSpec, Op, OpList, TaskSpec,
};
use mutation::{largest_alloc, mutate};
use proptest::test_runner::TestRng;

/// Corruptions tried per image.
const ITERATIONS: usize = 600;

/// A mid-run cluster exercising every image section: open sockets with
/// in-flight lossy traffic, a degraded node, traced tasks with user
/// routines, noise daemons and (on the dynticks engine) parked tick lanes.
fn captured(dynticks: bool) -> ClusterSnapshot {
    let mut spec = ClusterSpec::chiba(2);
    spec.trace_capacity = Some(64);
    spec.rcvbuf_bytes = Some(64 * 1024);
    spec.fault_plan = FaultPlan::new(11).with_rule(
        LinkMatch::Between(0, 1),
        FaultSpec {
            drop_prob: 0.1,
            dup_prob: 0.05,
            delay_prob: 0.05,
            delay_ns: 150_000,
            onset_ns: 0,
            rto_ns: 2_000_000,
        },
    );
    spec.node_faults = vec![(
        1,
        DegradeSpec {
            slowdown_pct: 150,
            slowdown_onset_ns: 1_000_000,
            offline_cpu_at_ns: None,
            irq_storm: Some(IrqStormSpec {
                start_ns: 0,
                end_ns: 5_000_000,
                irqs_per_tick: 2,
            }),
        },
    )];
    let mut c = if dynticks {
        Cluster::new(spec)
    } else {
        Cluster::new_reference_engine(spec)
    };
    for (i, bytes) in [48 * 1024u64, 300 * 1024].into_iter().enumerate() {
        let conn = c.open_conn(0, 1);
        c.spawn(
            0,
            TaskSpec::app(
                format!("s{i}"),
                Box::new(OpList::new(vec![
                    Op::UserEnter("pack"),
                    Op::Compute(200_000),
                    Op::UserExit("pack"),
                    Op::Send { conn, bytes },
                ])),
            )
            .traced(),
        );
        c.spawn(
            1,
            TaskSpec::app(
                format!("r{i}"),
                Box::new(OpList::new(vec![Op::Recv { conn, bytes }])),
            ),
        );
    }
    c.run_for(30_000_000);
    assert!(c.now() < 60 * NS_PER_SEC);
    c.snapshot()
}

/// The allocation budget for resuming an image of `len` bytes: a profile's
/// id-to-slot index may span the decoders' dense-length cap (`1 << 20` ids
/// of 4 bytes, doubled by `Vec` growth), the boot of a fresh cluster
/// allocates the event-queue wheel, and otherwise a small multiple of the
/// image.
fn budget(len: usize) -> usize {
    (8 << 20).max(64 * len)
}

#[test]
fn mutated_engine_images_fail_cleanly() {
    let mut rng = TestRng::deterministic();
    for dynticks in [true, false] {
        let snap = captured(dynticks);
        let (clean, largest) = largest_alloc(|| Cluster::resume(&snap));
        let clean = clean.expect("an unmodified image resumes");
        assert_eq!(clean.state_digest(), snap.digest());
        assert!(
            largest <= budget(snap.image().len()),
            "clean resume allocated {largest} B"
        );
        drop(clean);
        for _ in 0..ITERATIONS {
            let mut image = snap.image().to_vec();
            for _ in 0..1 + rng.below(2) {
                mutate(&mut rng, &mut image);
            }
            let len = image.len();
            let corrupt = snap.with_image(image);
            let (resumed, largest) = largest_alloc(|| Cluster::resume(&corrupt).map(drop));
            assert!(
                largest <= budget(len),
                "resume of a {len}-byte image allocated {largest} B ({resumed:?})"
            );
        }
    }
}
