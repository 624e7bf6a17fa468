//! The metrics a run reports: end-to-end metrics from untraced runs,
//! per-layer metrics from traced ones.  The names and units here are the
//! ones `BENCHMARK.json` lists (a test holds the two in step).

use crate::harness::Run;
use crate::layers::Extras;
use crate::spans::{SelfTimes, BENCH, DISPATCH};
use crate::stats::{median, Summary};
use ktau_core::selfprof::{Counter, EVENT_CLASS_NAMES};

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// End-to-end metrics, `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Dispatch classes reported per layer (`tx_done` is always elided into the
/// dynticks release ledger, so it never dispatches).
pub const CLASSES: [&str; 7] = [
    "cpu_done",
    "seg_arrive",
    "ack_arrive",
    "wake",
    "release_wake",
    "tick",
    "rtx_timer",
];

/// Share of the traced wall the named layers must cover.
pub const MIN_COVERAGE_PCT: f64 = 90.0;

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run; `Err` names what is
/// missing.  Host times are scaled to the reference host speed (see
/// [`crate::calibrate`]).  The event rate is the median over operations of
/// each one's events per second, which a few slow operations cannot drag
/// the way a total-over-total ratio would.
pub fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let op = Summary::of(&run.op_ms).ok_or("no operation succeeded")?;
    let setup = Summary::of(&run.setup_s).ok_or("no set-up succeeded")?;
    let factor = run
        .cal
        .as_ref()
        .and_then(|c| c.factor())
        .ok_or("no calibration sample")?;
    if run.op_events.len() != run.op_ms.len() {
        return Err("event counts do not cover every timed operation".into());
    }
    let rates: Vec<f64> = run
        .op_events
        .iter()
        .zip(&run.op_ms)
        .map(|(ev, ms)| *ev as f64 * 1e3 / ms)
        .collect();
    let values = [
        setup.median * factor,
        op.median * factor,
        median(&rates) / factor,
        run.peak_rss_mb,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, unit, v))
        .collect())
}

/// Share of `part` in `whole`, in percent (0 for an empty whole).
fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Self time as percent of the traced wall: the measured phase less
/// in-phase checks.
pub struct Shares {
    /// The traced wall, ns.
    pub wall_ns: f64,
    /// Percent of the wall the named layers (all but [`BENCH`]) cover.
    pub coverage: f64,
    t: SelfTimes,
}

impl Shares {
    /// The shares of `run`'s spans.
    pub fn of(run: &Run) -> Shares {
        let t = run.spans.self_times();
        let wall_ns = (run.phase_s * 1e9 - t.check_ns as f64).max(1.0);
        let covered: u64 = t
            .by_layer
            .iter()
            .filter(|(l, _)| **l != BENCH)
            .map(|(_, ns)| ns)
            .sum();
        Shares {
            wall_ns,
            coverage: pct(covered as f64, wall_ns),
            t,
        }
    }

    /// Every layer with its share.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.t
            .by_layer
            .iter()
            .map(|(l, ns)| (*l, pct(*ns as f64, self.wall_ns)))
    }

    fn layer(&self, l: &str) -> f64 {
        pct(*self.t.by_layer.get(l).unwrap_or(&0) as f64, self.wall_ns)
    }

    fn named(&self, l: &'static str, n: &'static str) -> f64 {
        pct(
            *self.t.by_name.get(&(l, n)).unwrap_or(&0) as f64,
            self.wall_ns,
        )
    }
}

/// The per-layer metrics of a traced run.  Accumulated quantities are per
/// timed operation; `.share` metrics are percent of the traced wall.
pub fn per_layer(run: &Run, x: &Extras) -> Vec<Metric> {
    let ops = run.op_ms.len().max(1) as f64;
    let per_op = |v: f64| v / ops;
    let sh = Shares::of(run);
    let count = |n: &str| *run.counts.get(n).unwrap_or(&0.0);
    let p = &run.prof;
    let dispatched: u64 = p.dispatch_count.iter().sum();
    let dispatch_ns: u64 = p.dispatch_ns.iter().sum();
    let simulated = run.engine.simulated as f64;
    let op_p50 = Summary::of(&run.op_ms).map_or(0.0, |s| s.median);

    let mut m = vec![
        metric("trace.op_p50_ms", "ms", op_p50),
        metric("trace.coverage", "%", sh.coverage),
        metric("sim.events_simulated", "count/op", per_op(simulated)),
        metric(
            "sim.events_dispatched",
            "count/op",
            per_op(dispatched as f64),
        ),
        metric(
            "sim.dispatch_ratio",
            "ratio",
            ratio(dispatched as f64, simulated),
        ),
        metric(
            "sim.queue.key_cmp_per_event",
            "ratio",
            ratio(
                p.counters[Counter::KeyCmp as usize] as f64,
                dispatched as f64,
            ),
        ),
        metric(
            "sim.queue.mature_scan_per_event",
            "ratio",
            ratio(
                p.counters[Counter::MatureScan as usize] as f64,
                dispatched as f64,
            ),
        ),
        metric(
            "sim.queue.push_overflow",
            "count/op",
            per_op(p.counters[Counter::PushOverflow as usize] as f64),
        ),
        metric("sim.loop.share", "%", sh.layer("sim")),
        metric(
            "dispatch.self_ms",
            "ms/op",
            per_op(dispatch_ns as f64 / 1e6),
        ),
        metric(
            "dispatch.ns_per_event",
            "ns",
            ratio(dispatch_ns as f64, dispatched as f64),
        ),
        metric("dispatch.share", "%", sh.layer(DISPATCH)),
    ];
    for class in CLASSES {
        let i = EVENT_CLASS_NAMES
            .iter()
            .position(|c| *c == class)
            .expect("class names come from selfprof");
        m.push(metric(
            format!("dispatch.{class}.count"),
            "count/op",
            per_op(p.dispatch_count[i] as f64),
        ));
        m.push(metric(
            format!("dispatch.{class}.share"),
            "%",
            pct(p.dispatch_ns[i] as f64, dispatch_ns as f64),
        ));
    }
    let captures = count("ktaud.captures");
    m.extend([
        metric(
            "oskern.ticks_coalesced",
            "count/op",
            per_op(run.engine.ticks_coalesced as f64),
        ),
        metric(
            "oskern.txdone_elided",
            "count/op",
            per_op(run.engine.txdone_elided as f64),
        ),
        metric("cluster.share", "%", sh.layer("cluster")),
        metric("measure.kernel_pair_ns", "ns", x.kernel_pair_ns),
        metric(
            "measure.kernel_pair_traced_ns",
            "ns",
            x.kernel_pair_traced_ns,
        ),
        metric("measure.user_pair_ns", "ns", x.user_pair_ns),
        metric(
            "net.retransmits",
            "count/op",
            per_op(run.engine.retransmits as f64),
        ),
        metric("ktas.snapshot_ms", "ms", x.snapshot_ms),
        metric("ktas.resume_ms", "ms", x.resume_ms),
        metric("ktas.image_bytes", "B", x.image_bytes as f64),
        metric("ktas.share", "%", sh.layer("ktas")),
        metric("digest.state_digest_ms", "ms", x.digest_ms),
        metric(
            "libktau.profile_read_us",
            "us",
            ratio(run.profiles.read_ns as f64 / 1e3, run.profiles.reads as f64),
        ),
        metric(
            "libktau.profile_read.share",
            "%",
            sh.named("libktau", "profile_read"),
        ),
        metric(
            "libktau.get_trace.share",
            "%",
            sh.named("libktau", "get_trace"),
        ),
        metric(
            "libktau.trace_records",
            "count/op",
            per_op(count("libktau.trace_records")),
        ),
        metric(
            "libktau.trace_lost",
            "count/op",
            per_op(count("libktau.trace_lost")),
        ),
        metric("ktaud.sweep.share", "%", sh.named("ktaud", "sweep")),
        metric("ktaud.poll.share", "%", sh.named("ktaud", "poll")),
        metric(
            "ktaud.mirror_apply.share",
            "%",
            sh.named("ktaud", "mirror_apply"),
        ),
        metric("ktaud.captures", "count/op", per_op(captures)),
        metric(
            "ktaud.gen_skips",
            "count/op",
            per_op(count("ktaud.gen_skips")),
        ),
        metric(
            "ktaud.delta_syncs",
            "count/op",
            per_op(count("ktaud.delta_syncs")),
        ),
        metric(
            "ktaud.full_syncs",
            "count/op",
            per_op(count("ktaud.full_syncs")),
        ),
        metric(
            "ktaud.capture_yield",
            "ratio",
            if captures > 0.0 {
                1.0 - count("ktaud.unchanged_captures") / captures
            } else {
                0.0
            },
        ),
        metric(
            "ktaud.client_bytes_per_node_update",
            "B",
            per_op(count("ktaud.client_bytes_per_node_update")),
        ),
    ]);
    let codec = [
        "encode_profile",
        "decode_profile",
        "decode_delta",
        "apply_delta",
    ];
    for (name, us) in codec.iter().zip(x.codec_us) {
        m.push(metric(format!("codec.{name}_us"), "us", us));
    }
    m
}
