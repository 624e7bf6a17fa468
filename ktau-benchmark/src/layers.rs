//! Per-layer measurements a traced run adds after its measured phase:
//! direct `ProbeEngine` micro-loops (the analogue of the paper's Table 4),
//! KTAS and digest timings on the workload's final cluster, and a replay of
//! the profiles the run read through the codec functions.

use crate::harness::{ProfileProbe, Run};
use crate::stats::median;
use ktau_core::event::{EventId, Group};
use ktau_core::measure::{ProbeEngine, TaskMeasurement};
use ktau_core::snapshot::{
    apply_delta, decode_delta, decode_profile, encode_delta, encode_profile, profile_delta,
};
use ktau_oskern::Cluster;
use std::hint::black_box;
use std::time::Instant;

/// What [`measure`] adds.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// One enabled kernel entry/exit probe pair on an untraced task, ns.
    pub kernel_pair_ns: f64,
    /// The same pair on a traced task (each probe writes a record), ns.
    pub kernel_pair_traced_ns: f64,
    /// One enabled user (TAU) entry/exit pair, ns.
    pub user_pair_ns: f64,
    /// `Cluster::snapshot` of the final cluster, ms.
    pub snapshot_ms: f64,
    /// `Cluster::resume` of that image, ms.
    pub resume_ms: f64,
    /// Size of the image.
    pub image_bytes: u64,
    /// `Cluster::state_digest` of the final cluster, ms.
    pub digest_ms: f64,
    /// Per replayed profile, µs: `encode_profile`, `decode_profile`,
    /// `decode_delta`, `apply_delta`.
    pub codec_us: [f64; 4],
}

const REPS: usize = 3;

/// Takes every extra measurement; failures count against `run`.
pub fn measure(run: &mut Run) -> Extras {
    let mut x = Extras {
        kernel_pair_ns: probe_pair_ns(TaskMeasurement::profiling(), false),
        kernel_pair_traced_ns: probe_pair_ns(TaskMeasurement::with_trace(4096), false),
        user_pair_ns: probe_pair_ns(TaskMeasurement::profiling(), true),
        ..Extras::default()
    };
    match run.final_cluster.take().map(|c| ktas(&c)) {
        Some(Ok((snap, resume, bytes, digest))) => {
            x.snapshot_ms = snap;
            x.resume_ms = resume;
            x.image_bytes = bytes;
            x.digest_ms = digest;
        }
        Some(Err(e)) => run.fail(e),
        None => run.fail("no final cluster to time KTAS and the digest on".into()),
    }
    match codec(&run.profiles) {
        Ok(us) => x.codec_us = us,
        Err(e) => run.fail(e),
    }
    x
}

/// Median ns of one entry/exit probe pair over five passes of 2^20 pairs.
fn probe_pair_ns(mut m: TaskMeasurement, user: bool) -> f64 {
    const PAIRS: u64 = 1 << 20;
    let eng = ProbeEngine::prof_all();
    let ev = EventId(0);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..PAIRS {
                let t = 2 * i;
                if user {
                    eng.user_entry(black_box(&mut m), ev, Group::User, t);
                    eng.user_exit(black_box(&mut m), ev, Group::User, t + 1);
                } else {
                    eng.kernel_entry(black_box(&mut m), ev, Group::Syscall, t);
                    eng.kernel_exit(black_box(&mut m), ev, Group::Syscall, t + 1);
                }
            }
            t0.elapsed().as_nanos() as f64 / PAIRS as f64
        })
        .collect();
    median(&samples)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median snapshot ms, resume ms, image bytes and digest ms on `c`.
fn ktas(c: &Cluster) -> Result<(f64, f64, u64, f64), String> {
    let mut snap_ms = Vec::new();
    let mut snap = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let s = c.snapshot();
        snap_ms.push(ms_since(t0));
        snap = Some(s);
    }
    let snap = snap.expect("REPS > 0");
    let mut resume_ms = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = Cluster::resume(&snap).map_err(|e| format!("resume of the final state: {e}"))?;
        resume_ms.push(ms_since(t0));
        drop(r);
    }
    let digest_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(c.state_digest());
            ms_since(t0)
        })
        .collect();
    Ok((
        median(&snap_ms),
        median(&resume_ms),
        snap.image().len() as u64,
        median(&digest_ms),
    ))
}

/// µs per item of `f` over `items` items, repeating whole passes for at
/// least 20 ms.
fn per_item_us(items: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed().as_millis() < 20 {
        f();
        passes += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / (f64::from(passes) * items as f64)
}

/// Replays each process's latest read (and its delta from the previous
/// read, or from itself when it was read once) through the codecs.  The
/// replay first checks that applying each delta reproduces the read bytes.
fn codec(p: &ProfileProbe) -> Result<[f64; 4], String> {
    let items: Vec<_> = p
        .latest
        .values()
        .map(|(prev, cur)| (&prev.as_ref().unwrap_or(cur).1, &cur.0, &cur.1))
        .collect();
    if items.is_empty() {
        return Err("codec replay: no profiles were read".into());
    }
    let deltas: Vec<Vec<u8>> = items
        .iter()
        .map(|(base, _, cur)| encode_delta(&profile_delta(base, cur, 1, 2)))
        .collect();
    let mut decoded = Vec::with_capacity(deltas.len());
    for ((base, bytes, cur), d) in items.iter().zip(&deltas) {
        let d = decode_delta(d).map_err(|e| format!("codec replay: decode_delta: {e}"))?;
        let full = apply_delta(base, &d).map_err(|e| format!("codec replay: apply_delta: {e}"))?;
        if encode_profile(&full) != **bytes {
            return Err(format!(
                "codec replay: node {} pid {} does not re-encode to its read bytes",
                cur.node, cur.pid
            ));
        }
        decoded.push(d);
    }
    let n = items.len();
    Ok([
        per_item_us(n, || {
            for (_, _, cur) in &items {
                black_box(encode_profile(cur));
            }
        }),
        per_item_us(n, || {
            for (_, bytes, _) in &items {
                let _ = black_box(decode_profile(bytes));
            }
        }),
        per_item_us(n, || {
            for d in &deltas {
                let _ = black_box(decode_delta(d));
            }
        }),
        per_item_us(n, || {
            for ((base, _, _), d) in items.iter().zip(&decoded) {
                let _ = black_box(apply_delta(base, d));
            }
        }),
    ])
}
