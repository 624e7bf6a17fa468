//! Seeded mutation loop over profile and delta bytes: truncated, bit-
//! flipped, extended and count-inflated inputs must always decode to `Ok`
//! or a `CodecError` — never panic, and never allocate in proportion to a
//! count the input merely claims.  Along the way the encoded-row paths are
//! held to the decoders: `EncodedProfile::parse` accepts exactly what
//! `decode_profile` accepts and fails with the same error, and
//! `EncodedProfile::apply` rejects a malformed delta with the error
//! `decode_delta` gives it.

use ktau_core::profile::{AtomicStats, EntryExitStats};
use ktau_core::snapshot::{
    decode_delta, decode_profile, encode_profile, profile_delta, profile_from_ascii,
    profile_to_ascii, AtomicRow, EncodedProfile, EventRow, MergedRow, ProfileSnapshot,
};
use ktau_core::Group;
use proptest::test_runner::TestRng;

#[path = "common/mutation.rs"]
mod mutation;
use mutation::{largest_alloc, mutate};

/// The allocation budget for decoding `len` input bytes: a row vector
/// presized for the decoders' 4096-row cap (the widest row is a delta's
/// `(index, MergedRow)`), or a small multiple of the input.
fn budget(len: usize) -> usize {
    (4096 * std::mem::size_of::<(u32, MergedRow)>()).max(64 * len + 4096)
}

const NAMES: [&str; 6] = ["schedule", "sys_getpid", "", "a b", "日本語", "do_IRQ"];

fn name(rng: &mut TestRng) -> String {
    NAMES[rng.below(NAMES.len() as u64) as usize].to_owned()
}

fn group(rng: &mut TestRng) -> Group {
    Group::ALL[rng.below(Group::ALL.len() as u64) as usize]
}

fn snapshot(rng: &mut TestRng) -> ProfileSnapshot {
    let mut p = ProfileSnapshot {
        pid: rng.below(1 << 16) as u32,
        comm: name(rng),
        node: rng.below(64) as u32,
        taken_ns: rng.next_u64() >> 8,
        ..Default::default()
    };
    for _ in 0..rng.below(6) {
        p.kernel_events.push(EventRow {
            name: name(rng),
            group: group(rng),
            stats: EntryExitStats {
                count: rng.below(1000),
                incl_ns: rng.next_u64() >> 20,
                excl_ns: rng.next_u64() >> 20,
                min_incl_ns: rng.below(100),
                max_incl_ns: rng.below(10_000),
            },
        });
    }
    for _ in 0..rng.below(3) {
        p.kernel_atomics.push(AtomicRow {
            name: name(rng),
            group: group(rng),
            stats: AtomicStats {
                count: rng.below(100),
                sum: rng.next_u64() >> 20,
                min: 0,
                max: rng.below(1500),
            },
        });
    }
    p.user_events = p.kernel_events.iter().take(2).cloned().collect();
    for _ in 0..rng.below(5) {
        p.merged.push(MergedRow {
            user: rng.coin().then(|| name(rng)),
            kernel: name(rng),
            kernel_group: group(rng),
            count: rng.below(50),
            ns: rng.next_u64() >> 24,
        });
    }
    for _ in 0..rng.below(4) {
        p.kernel_wall
            .push((rng.coin().then(|| name(rng)), rng.next_u64() >> 24));
    }
    p
}

/// A later snapshot of the same process: some counters move, a row may
/// appear or the comm change.
fn evolve(rng: &mut TestRng, p: &ProfileSnapshot) -> ProfileSnapshot {
    let mut q = snapshot(rng);
    q.pid = p.pid;
    q.node = p.node;
    if rng.coin() {
        q.comm = p.comm.clone();
        q.kernel_events = p.kernel_events.clone();
        if let Some(r) = q.kernel_events.first_mut() {
            r.stats.count += 1;
        }
    }
    q
}

#[test]
fn mutated_profiles_and_deltas_fail_cleanly() {
    let mut rng = TestRng::deterministic();
    for _ in 0..300 {
        let base = snapshot(&mut rng);
        let new = evolve(&mut rng, &base);
        let profile = encode_profile(&new);
        let delta = ktau_core::snapshot::encode_delta(&profile_delta(&base, &new, 1, 2));
        let base_enc = EncodedProfile::encode(&base);
        let ascii = profile_to_ascii(&new);
        for _ in 0..12 {
            let mut m = profile.clone();
            mutate(&mut rng, &mut m);
            let ((decoded, parsed), largest) =
                largest_alloc(|| (decode_profile(&m), EncodedProfile::parse(m.clone())));
            assert!(
                largest <= budget(m.len()),
                "profile decode allocated {largest} B"
            );
            assert_eq!(decoded.as_ref().err(), parsed.as_ref().err());
            if let (Ok(d), Ok(p)) = (&decoded, &parsed) {
                assert_eq!(&p.decode(), d);
            }

            let mut m = delta.clone();
            mutate(&mut rng, &mut m);
            let ((decoded, applied), largest) =
                largest_alloc(|| (decode_delta(&m), base_enc.apply(&m)));
            assert!(
                largest <= budget(m.len().max(profile.len())),
                "delta apply allocated {largest} B"
            );
            if let Err(e) = decoded {
                assert_eq!(applied, Err(e));
            }

            let mut m = ascii.clone().into_bytes();
            mutate(&mut rng, &mut m);
            let text = String::from_utf8_lossy(&m);
            let (_, largest) = largest_alloc(|| profile_from_ascii(&text));
            assert!(
                largest <= budget(m.len()),
                "ASCII decode allocated {largest} B"
            );
        }
    }
}
