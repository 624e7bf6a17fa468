//! Mid-run engine snapshots: the `KTAS` image format, [`ClusterSnapshot`],
//! and [`Cluster::snapshot`] / [`Cluster::resume`].
//!
//! A snapshot captures *everything* the event loop will ever read — the
//! event queue (every pending entry, with explicit sequence numbers), every
//! node's scheduler/socket/fault/measurement state, the fabric's open
//! links, and the spec the cluster was booted from — into one versioned
//! binary image following the repo-wide KTAU codec discipline (4-byte
//! magic, `u16` version, little-endian fields, explicit end-of-input
//! check).  [`Cluster::resume`] reconstructs a cluster that is
//! *bit-identical going forward*: its state digest equals the captured one
//! (verified on every resume), and running both the original and the
//! resumed cluster produces identical digests at every future time.
//!
//! The one thing a byte image cannot carry is the workload code itself:
//! tasks hold `Box<dyn Program>` trait objects.  [`ClusterSnapshot`]
//! therefore pairs the image with an in-memory side-car of deep-cloned
//! programs keyed by `(node, pid)`; resume re-attaches a fresh clone to
//! each task that had one at capture.  This makes snapshots cheap to fork:
//! `resume` can be called any number of times on the same snapshot, each
//! call yielding an independent cluster at the capture point — the basis
//! of the warm-prefix scenario sweeps in `ktau-bench` (run the shared
//! prefix once, fork N variants from memory instead of re-simulating the
//! prefix N times).
//!
//! Fork variants mutate the resumed cluster *at the capture time* through
//! [`Cluster::install_fault_plan`] and [`Cluster::set_node_degrade`]; the
//! same mutation applied to an uninterrupted run at the same virtual time
//! yields a digest-identical end state, which is what the fork-determinism
//! gate (`fork_sweep --check`) verifies.

use crate::config::{ClusterSpec, DegradeSpec, IrqPolicy, IrqStormSpec, NodeSpec};
use crate::program::Program;
use crate::sim::{Cluster, EventQueue};
use crate::task::Pid;
use ktau_core::control::{InstrumentationControl, OverheadModel};
use ktau_core::event::Group;
use ktau_core::time::CpuFreq;
use ktau_core::wire::{CodecError, Reader, Writer};
use ktau_net::{ConnId, Fabric, FaultPlan, FaultSpec, LinkMatch, LinkSpec, NetCostModel};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Magic prefix of engine snapshot images.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"KTAS";
/// Snapshot image version.  v3 stores per-task measurement sections in the
/// compact arena layout without the dense-layout watermarks v2 carried;
/// [`Cluster::resume`] rejects every other version, v1 and v2 included.
pub const SNAPSHOT_VERSION: u16 = 3;

// -- event-group tags --------------------------------------------------------

/// Stable wire tag for a [`Group`]: its position in [`Group::ALL`].
pub(crate) fn group_tag(g: Group) -> u8 {
    Group::ALL
        .iter()
        .position(|&x| x == g)
        .expect("Group::ALL covers every group") as u8
}

/// Inverse of [`group_tag`].
pub(crate) fn group_from_tag(t: u8) -> Result<Group, CodecError> {
    Group::ALL
        .get(t as usize)
        .copied()
        .ok_or(CodecError::BadField("event group"))
}

// -- string interning --------------------------------------------------------

/// Interns a decoded user-routine name as `&'static str`.
///
/// The event registry stores user-routine names as `&'static str` (real
/// KTAU keeps them in kernel rodata).  Snapshot decode produces owned
/// strings, so resume leaks them — bounded by a global cache keyed on
/// content: resuming the same workload a thousand times leaks each distinct
/// routine name once, not a thousand times.
pub(crate) fn intern(name: String) -> &'static str {
    static CACHE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut cache = CACHE.lock().unwrap();
    if let Some(&s) = cache.get(name.as_str()) {
        return s;
    }
    let s: &'static str = Box::leak(name.into_boxed_str());
    cache.insert(s);
    s
}

// -- shared sub-codecs -------------------------------------------------------

/// Encodes a [`FaultSpec`]; probabilities travel as IEEE-754 bit patterns
/// so the round trip is exact.
pub(crate) fn encode_fault_spec(w: &mut Writer, s: &FaultSpec) {
    w.u64(s.drop_prob.to_bits());
    w.u64(s.dup_prob.to_bits());
    w.u64(s.delay_prob.to_bits());
    w.u64(s.delay_ns);
    w.u64(s.onset_ns);
    w.u64(s.rto_ns);
}

/// Inverse of [`encode_fault_spec`].
pub(crate) fn decode_fault_spec(r: &mut Reader<'_>) -> Result<FaultSpec, CodecError> {
    Ok(FaultSpec {
        drop_prob: f64::from_bits(r.u64()?),
        dup_prob: f64::from_bits(r.u64()?),
        delay_prob: f64::from_bits(r.u64()?),
        delay_ns: r.u64()?,
        onset_ns: r.u64()?,
        rto_ns: r.u64()?,
    })
}

/// Encodes a [`DegradeSpec`] including its optional IRQ storm.
pub(crate) fn encode_degrade_spec(w: &mut Writer, d: &DegradeSpec) {
    w.u32(d.slowdown_pct);
    w.u64(d.slowdown_onset_ns);
    match d.offline_cpu_at_ns {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            w.u64(t);
        }
    }
    match &d.irq_storm {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.u64(s.start_ns);
            w.u64(s.end_ns);
            w.u32(s.irqs_per_tick);
        }
    }
}

/// Inverse of [`encode_degrade_spec`].
pub(crate) fn decode_degrade_spec(r: &mut Reader<'_>) -> Result<DegradeSpec, CodecError> {
    let slowdown_pct = r.u32()?;
    let slowdown_onset_ns = r.u64()?;
    let offline_cpu_at_ns = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(CodecError::BadField("offline option")),
    };
    let irq_storm = match r.u8()? {
        0 => None,
        1 => Some(IrqStormSpec {
            start_ns: r.u64()?,
            end_ns: r.u64()?,
            irqs_per_tick: r.u32()?,
        }),
        _ => return Err(CodecError::BadField("irq storm option")),
    };
    Ok(DegradeSpec {
        slowdown_pct,
        slowdown_onset_ns,
        offline_cpu_at_ns,
        irq_storm,
    })
}

// -- cluster-spec codec ------------------------------------------------------
//
// `ClusterSpec` aggregates types without serde derives (and `Arc<NodeSpec>`
// entries the vendored serde stub cannot handle), so the snapshot encodes
// it field by field, in declaration order.

fn encode_spec(w: &mut Writer, spec: &ClusterSpec) {
    w.u32(spec.nodes.len() as u32);
    for n in &spec.nodes {
        w.str(&n.name);
        w.u8(n.cpus);
        match n.detected_cpus {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                w.u8(c);
            }
        }
        w.u64(n.freq.hz());
        match n.irq {
            IrqPolicy::AllToCpu0 => w.u8(0),
            IrqPolicy::Balanced => w.u8(1),
            IrqPolicy::PinnedTo(c) => {
                w.u8(2);
                w.u8(c);
            }
        }
        w.u32(n.smp_compute_dilation_pct);
    }
    w.u64(spec.fabric_latency_ns);
    w.u64(spec.nic_bits_per_sec);
    w.u64(spec.sndbuf_bytes);
    spec.control.encode_wire(w);
    for v in [
        spec.overhead.start_cycles,
        spec.overhead.stop_cycles,
        spec.overhead.atomic_cycles,
        spec.overhead.disabled_check_cycles,
        spec.overhead.trace_record_cycles,
    ] {
        w.u64(v);
    }
    let c = &spec.net_costs;
    for v in [
        c.sys_writev_cycles,
        c.sock_sendmsg_cycles,
        c.tcp_send_base_cycles,
        c.tcp_send_mcycles_per_byte,
        c.irq_cycles,
        c.softirq_base_cycles,
        c.tcp_rcv_base_cycles,
        c.tcp_rcv_mcycles_per_byte,
        c.sys_read_cycles,
        c.read_copy_mcycles_per_byte,
    ] {
        w.u64(v);
    }
    w.u32(c.busy_smp_dilation_pct);
    w.u32(c.cross_cpu_penalty_pct);
    w.u32(spec.sched.hz);
    w.u32(spec.sched.timeslice_ticks);
    w.u64(spec.sched.ctx_switch_cycles);
    w.u64(spec.sched.tick_cycles);
    w.u64(spec.sched.migration_cycles);
    w.u32(spec.noise.daemons_per_node);
    w.u64(spec.noise.mean_period_ns);
    w.u64(spec.noise.mean_busy_ns);
    w.u64(spec.seed);
    match spec.trace_capacity {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            w.u64(c as u64);
        }
    }
    w.u64(spec.fault_plan.seed);
    let rules = spec.fault_plan.rules();
    w.u32(rules.len() as u32);
    for (m, s) in rules {
        match m {
            LinkMatch::Any => w.u8(0),
            LinkMatch::FromNode(n) => {
                w.u8(1);
                w.u32(*n);
            }
            LinkMatch::ToNode(n) => {
                w.u8(2);
                w.u32(*n);
            }
            LinkMatch::Node(n) => {
                w.u8(3);
                w.u32(*n);
            }
            LinkMatch::Between(a, b) => {
                w.u8(4);
                w.u32(*a);
                w.u32(*b);
            }
        }
        encode_fault_spec(w, s);
    }
    match spec.rcvbuf_bytes {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            w.u64(b);
        }
    }
    w.u32(spec.node_faults.len() as u32);
    for (node, d) in &spec.node_faults {
        w.u32(*node);
        encode_degrade_spec(w, d);
    }
}

fn decode_spec(r: &mut Reader<'_>) -> Result<ClusterSpec, CodecError> {
    // Counts are checked against the bytes left before anything is
    // reserved for them (each element's minimum encoded size).
    let n_nodes = r.counted(19, "node count")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let name = r.str()?;
        let cpus = r.u8()?;
        // Task affinity is a 32-bit CPU mask.
        if cpus > 32 {
            return Err(CodecError::BadField("cpu count"));
        }
        let detected_cpus = match r.u8()? {
            0 => None,
            1 => Some(r.u8()?),
            _ => return Err(CodecError::BadField("detected cpus option")),
        };
        let hz = r.u64()?;
        if hz == 0 {
            return Err(CodecError::BadField("cpu frequency"));
        }
        let freq = CpuFreq::from_hz(hz);
        let irq = match r.u8()? {
            0 => IrqPolicy::AllToCpu0,
            1 => IrqPolicy::Balanced,
            2 => IrqPolicy::PinnedTo(r.u8()?),
            _ => return Err(CodecError::BadField("irq policy")),
        };
        let smp_compute_dilation_pct = r.u32()?;
        nodes.push(Arc::new(NodeSpec {
            name,
            cpus,
            detected_cpus,
            freq,
            irq,
            smp_compute_dilation_pct,
        }));
    }
    let fabric_latency_ns = r.u64()?;
    let nic_bits_per_sec = r.u64()?;
    let sndbuf_bytes = r.u64()?;
    let control = InstrumentationControl::decode_wire(r)?;
    let overhead = OverheadModel {
        start_cycles: r.u64()?,
        stop_cycles: r.u64()?,
        atomic_cycles: r.u64()?,
        disabled_check_cycles: r.u64()?,
        trace_record_cycles: r.u64()?,
    };
    let net_costs = NetCostModel {
        sys_writev_cycles: r.u64()?,
        sock_sendmsg_cycles: r.u64()?,
        tcp_send_base_cycles: r.u64()?,
        tcp_send_mcycles_per_byte: r.u64()?,
        irq_cycles: r.u64()?,
        softirq_base_cycles: r.u64()?,
        tcp_rcv_base_cycles: r.u64()?,
        tcp_rcv_mcycles_per_byte: r.u64()?,
        sys_read_cycles: r.u64()?,
        read_copy_mcycles_per_byte: r.u64()?,
        busy_smp_dilation_pct: r.u32()?,
        cross_cpu_penalty_pct: r.u32()?,
    };
    let sched = crate::config::SchedParams {
        hz: r.u32()?,
        timeslice_ticks: r.u32()?,
        ctx_switch_cycles: r.u64()?,
        tick_cycles: r.u64()?,
        migration_cycles: r.u64()?,
    };
    // The tick period (`1 s / hz`) must be at least one nanosecond.
    if sched.hz == 0 || sched.hz as u64 > ktau_core::time::NS_PER_SEC {
        return Err(CodecError::BadField("sched hz"));
    }
    let noise = crate::config::NoiseSpec {
        daemons_per_node: r.u32()?,
        mean_period_ns: r.u64()?,
        mean_busy_ns: r.u64()?,
    };
    // Daemons jitter their sleeps and bursts by up to 1.5x in per-mille
    // steps: the products must fit in a u64.
    if noise.mean_period_ns.max(noise.mean_busy_ns) > u64::MAX / 1500 {
        return Err(CodecError::BadField("noise timing"));
    }
    let seed = r.u64()?;
    let trace_capacity = match r.u8()? {
        0 => None,
        1 => match r.u64()? {
            0 => return Err(CodecError::BadField("trace capacity")),
            c => Some(c as usize),
        },
        _ => return Err(CodecError::BadField("trace capacity option")),
    };
    let plan_seed = r.u64()?;
    let n_rules = r.counted(49, "fault rule count")?;
    let mut rules = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let m = match r.u8()? {
            0 => LinkMatch::Any,
            1 => LinkMatch::FromNode(r.u32()?),
            2 => LinkMatch::ToNode(r.u32()?),
            3 => LinkMatch::Node(r.u32()?),
            4 => {
                let a = r.u32()?;
                let b = r.u32()?;
                LinkMatch::Between(a, b)
            }
            _ => return Err(CodecError::BadField("link match")),
        };
        rules.push((m, decode_fault_spec(r)?));
    }
    let fault_plan = FaultPlan::from_rules(plan_seed, rules);
    let rcvbuf_bytes = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(CodecError::BadField("rcvbuf option")),
    };
    let n_faults = r.counted(18, "node fault count")?;
    let mut node_faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        let node = r.u32()?;
        node_faults.push((node, decode_degrade_spec(r)?));
    }
    Ok(ClusterSpec {
        nodes,
        fabric_latency_ns,
        nic_bits_per_sec,
        sndbuf_bytes,
        control,
        overhead,
        net_costs,
        sched,
        noise,
        seed,
        trace_capacity,
        fault_plan,
        rcvbuf_bytes,
        node_faults,
    })
}

// -- the snapshot ------------------------------------------------------------

/// A captured engine state: one `KTAS` binary image plus the in-memory
/// program side-car.
///
/// Cloning is cheap relative to re-simulating the captured prefix (one
/// `Vec<u8>` copy plus program deep-clones), so sweep drivers hand each
/// worker thread its own clone.
#[derive(Clone)]
pub struct ClusterSnapshot {
    image: Vec<u8>,
    /// Deep-cloned task programs keyed `(node, pid)` — trait objects the
    /// byte image cannot carry.
    programs: Vec<(u32, u32, Box<dyn Program>)>,
    digest: u64,
}

impl ClusterSnapshot {
    /// The versioned binary image (`KTAS`).
    pub fn image(&self) -> &[u8] {
        &self.image
    }
    /// This snapshot's program side-car and capture digest paired with
    /// other image bytes — how decoder tests feed [`Cluster::resume`]
    /// corrupted or hand-patched images.
    pub fn with_image(&self, image: Vec<u8>) -> ClusterSnapshot {
        ClusterSnapshot {
            image,
            programs: self.programs.clone(),
            digest: self.digest,
        }
    }
    /// The cluster's state digest at capture; [`Cluster::resume`] verifies
    /// the reconstruction against it.
    pub fn digest(&self) -> u64 {
        self.digest
    }
    /// Virtual capture time, decoded from the image header.
    pub fn captured_at(&self) -> Result<u64, CodecError> {
        let mut r = Reader::new(&self.image);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let v = r.u16()?;
        if v != SNAPSHOT_VERSION {
            return Err(CodecError::BadVersion(v));
        }
        // Skip the spec (variable length) by decoding it.
        decode_spec(&mut r)?;
        r.bool()?; // engine flag
        r.bool()?; // engine flag, again
        r.u64()
    }
}

impl std::fmt::Debug for ClusterSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSnapshot")
            .field("image_bytes", &self.image.len())
            .field("programs", &self.programs.len())
            .field("digest", &self.digest)
            .finish()
    }
}

impl Cluster {
    /// Captures the complete engine state as a [`ClusterSnapshot`].
    ///
    /// Valid between [`Cluster::run_for`] calls, never mid-dispatch.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let mut w = Writer::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        encode_spec(&mut w, &self.spec);
        // The engine flag, twice: the v3 layout has two engine-mode bytes,
        // and resume rejects an image where they disagree.
        w.bool(self.coalesce_ticks());
        w.bool(self.coalesce_ticks());
        w.u64(self.now);
        w.u64(self.apps_spawned);
        w.u64(self.events_processed);
        w.u64(self.ticks_dispatched);
        w.u64(self.fabric.latency_ns());
        let links = self.fabric.links();
        w.u32(links.len() as u32);
        for l in links {
            w.u32(l.src_node);
            w.u32(l.dst_node);
        }
        self.queue.encode_wire(&mut w);
        w.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            n.encode_state(&mut w);
        }
        let digest = self.state_digest();
        w.u64(digest);
        let mut programs = Vec::new();
        for n in &self.nodes {
            for t in n.tasks.slots().iter().flatten() {
                if let Some(p) = &t.program {
                    programs.push((n.id, t.pid.0, p.clone()));
                }
            }
        }
        ClusterSnapshot {
            image: w.into_vec(),
            programs,
            digest,
        }
    }

    /// Reconstructs a cluster from a snapshot, bit-identical to the
    /// captured one going forward.
    ///
    /// Boots a structurally fresh cluster from the decoded spec (probes,
    /// registries and clocks are recreated, preserving the boot-time `Arc`
    /// sharing of control state), then overlays every dynamic field from
    /// the image, replaces the event queue wholesale, and re-attaches the
    /// side-car program clones.  The reconstruction is verified against the
    /// capture-time state digest; a mismatch fails with
    /// [`CodecError::DeltaMismatch`] rather than returning a cluster that
    /// would silently diverge.
    pub fn resume(snap: &ClusterSnapshot) -> Result<Cluster, CodecError> {
        let mut r = Reader::new(&snap.image);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let v = r.u16()?;
        if v != SNAPSHOT_VERSION {
            return Err(CodecError::BadVersion(v));
        }
        let spec = decode_spec(&mut r)?;
        let dynticks = r.bool()?;
        if r.bool()? != dynticks {
            return Err(CodecError::Corrupt("engine mode"));
        }
        let now = r.u64()?;
        let apps_spawned = r.u64()?;
        let events_processed = r.u64()?;
        let ticks_dispatched = r.u64()?;
        let latency_ns = r.u64()?;
        let nodes = spec.nodes.len();
        let n_links = r.counted(8, "link count")?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let src_node = r.u32()?;
            let dst_node = r.u32()?;
            if src_node as usize >= nodes || dst_node as usize >= nodes {
                return Err(CodecError::Corrupt("link node"));
            }
            links.push(LinkSpec { src_node, dst_node });
        }
        let queue = EventQueue::decode_wire(&mut r, nodes)?;
        if r.u32()? as usize != nodes {
            return Err(CodecError::BadField("node count"));
        }
        // Booting creates every node's idle task and noise daemons, each of
        // which the image must then hold as a task slot (one byte at the
        // least): a spec claiming more than the bytes left is corrupt, and
        // is rejected before the boot would spend time and memory on it.
        let daemons = nodes.saturating_mul(spec.noise.daemons_per_node as usize);
        if nodes.saturating_add(daemons) > r.remaining() {
            return Err(CodecError::Corrupt("noise daemon count"));
        }
        let mut cluster = Cluster::boot(spec, dynticks);
        let mut needs_program = 0usize;
        for node in &mut cluster.nodes {
            needs_program += node.apply_state(&mut r)?.len();
        }
        let digest = r.u64()?;
        r.expect_end()?;
        cluster.fabric = Fabric::from_links(latency_ns, links);
        cluster.queue = queue;
        cluster.now = now;
        cluster.apps_spawned = apps_spawned;
        cluster.events_processed = events_processed;
        cluster.ticks_dispatched = ticks_dispatched;
        if snap.programs.len() != needs_program {
            return Err(CodecError::BadField("program side-car"));
        }
        for (node, pid, prog) in &snap.programs {
            let n = cluster
                .nodes
                .get_mut(*node as usize)
                .ok_or(CodecError::BadField("program side-car node"))?;
            n.attach_program(Pid(*pid), prog.clone())?;
        }
        if cluster.state_digest() != digest {
            return Err(CodecError::DeltaMismatch);
        }
        Ok(cluster)
    }

    /// Replaces the live fault plan mid-run — the fork-variant mutation.
    ///
    /// Every already-open non-loopback connection gets a fresh injector
    /// drawn from the new plan (PRNG stream at position 0); links the new
    /// plan leaves clean return to the fault-free fast path once fully
    /// repaired.  In-flight retransmission state survives the swap (see
    /// `Node::set_tx_fault`), so mutating a mid-transfer lossy link never
    /// strands data.  The whole mutation is a pure function of the
    /// pre-mutation state: applying the same plan at the same virtual time
    /// to a forked and an uninterrupted cluster yields digest-identical
    /// futures.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        // Parked dynticks ticks assumed the pre-mutation state: settle and
        // re-arm them before touching fault machinery.
        for id in 0..self.nodes.len() as u32 {
            let _ = self.node_mut(id);
        }
        self.spec.fault_plan = plan;
        for i in 0..self.fabric.len() {
            let conn = ConnId(i as u32);
            let link = self.fabric.link(conn);
            if link.is_loopback() {
                continue;
            }
            let injector = self.spec.fault_plan.injector_for(conn, &link);
            let faulted = self.nodes[link.src_node as usize].set_tx_fault(conn, injector);
            self.nodes[link.dst_node as usize].set_rx_fault_active(conn, faulted);
        }
    }

    /// Installs (or clears) a node-degradation spec mid-run — the other
    /// fork-variant mutation.  Also recorded in the spec so
    /// [`ClusterSpec::degrade_for`] stays consistent for later snapshots.
    pub fn set_node_degrade(&mut self, node: u32, d: Option<DegradeSpec>) {
        self.spec.node_faults.retain(|(n, _)| *n != node);
        if let Some(d) = d {
            self.spec.node_faults.push((node, d));
        }
        self.node_mut(node).set_degrade(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedParams;

    fn spec() -> ClusterSpec {
        let mut s = ClusterSpec::chiba(2);
        s.trace_capacity = Some(64);
        s.rcvbuf_bytes = Some(32 * 1024);
        s.fault_plan = FaultPlan::new(7).with_rule(
            LinkMatch::Between(0, 1),
            FaultSpec {
                drop_prob: 0.05,
                dup_prob: 0.01,
                delay_prob: 0.1,
                delay_ns: 50_000,
                onset_ns: 1_000_000,
                rto_ns: 150_000_000,
            },
        );
        s.node_faults = vec![(
            1,
            DegradeSpec {
                slowdown_pct: 140,
                slowdown_onset_ns: 2_000_000,
                offline_cpu_at_ns: Some(5_000_000),
                irq_storm: Some(IrqStormSpec {
                    start_ns: 1,
                    end_ns: 2,
                    irqs_per_tick: 3,
                }),
            },
        )];
        s
    }

    #[test]
    fn spec_codec_roundtrip_is_debug_exact() {
        let s = spec();
        let mut w = Writer::new();
        encode_spec(&mut w, &s);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = decode_spec(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
    }

    #[test]
    fn spec_codec_rejects_truncation() {
        let mut w = Writer::new();
        encode_spec(&mut w, &spec());
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(decode_spec(&mut r).is_err() || r.expect_end().is_err());
    }

    #[test]
    fn spec_codec_rejects_unbootable_values() {
        type Patch = fn(&mut ClusterSpec);
        let cases: [(Patch, &str); 4] = [
            (|s| s.sched.hz = 2_000_000_000, "sched hz"),
            (|s| s.noise.mean_busy_ns = u64::MAX / 1000, "noise timing"),
            (|s| Arc::make_mut(&mut s.nodes[0]).cpus = 33, "cpu count"),
            (|s| s.trace_capacity = Some(0), "trace capacity"),
        ];
        for (patch, field) in cases {
            let mut s = spec();
            patch(&mut s);
            let mut w = Writer::new();
            encode_spec(&mut w, &s);
            let bytes = w.into_vec();
            assert_eq!(
                decode_spec(&mut Reader::new(&bytes)).err(),
                Some(CodecError::BadField(field))
            );
        }
    }

    #[test]
    fn group_tags_roundtrip() {
        for &g in Group::ALL.iter() {
            assert_eq!(group_from_tag(group_tag(g)).unwrap(), g);
        }
        assert!(group_from_tag(Group::ALL.len() as u8).is_err());
    }

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("fork_test_routine".to_string());
        let b = intern("fork_test_routine".to_string());
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn malformed_image_headers_are_rejected() {
        for mut c in [
            Cluster::new(ClusterSpec::chiba(1)),
            Cluster::new_reference_engine(ClusterSpec::chiba(1)),
        ] {
            c.run_for(1_000_000);
            let snap = c.snapshot();
            // Unknown versions, the retired v1 and v2 included.
            for v in [1u16, 2, 99] {
                let mut image = snap.image().to_vec();
                // The u16 version field (little-endian, after the magic).
                image[4..6].copy_from_slice(&v.to_le_bytes());
                let bad = snap.with_image(image);
                assert!(matches!(
                    Cluster::resume(&bad),
                    Err(CodecError::BadVersion(x)) if x == v
                ));
                assert!(matches!(
                    bad.captured_at(),
                    Err(CodecError::BadVersion(x)) if x == v
                ));
            }
            // Engine-mode bytes that disagree.  They follow the spec.
            let mut r = Reader::new(&snap.image()[6..]);
            decode_spec(&mut r).unwrap();
            let at = 6 + r.position();
            let mut image = snap.image().to_vec();
            assert_eq!(image[at], image[at + 1]);
            image[at + 1] ^= 1;
            assert!(matches!(
                Cluster::resume(&snap.with_image(image)),
                Err(CodecError::Corrupt("engine mode"))
            ));
        }
    }

    /// The `KTAS` image bytes of a fixed mid-run cluster on each engine.  A
    /// traced task keeps its CPU's ticks armed in the event queue, so the
    /// pin covers queued ticks on the dynticks engine too.  A change to the
    /// image layout, or to the order in which queued entries are written,
    /// moves these checks.
    #[test]
    fn chiba2_image_is_pinned() {
        for (mut c, want) in [
            (Cluster::new(ClusterSpec::chiba(2)), 0x4c51_e3f8_c76a_48c2),
            (
                Cluster::new_reference_engine(ClusterSpec::chiba(2)),
                0x7172_c231_24b1_cedd,
            ),
        ] {
            c.spawn(
                0,
                crate::TaskSpec::app(
                    "pinned",
                    Box::new(crate::OpList::new(vec![crate::Op::Compute(1_000_000_000)])),
                )
                .traced(),
            );
            c.run_for(5_000_000);
            assert!(c.queue.pending_summary().tick > 0);
            let check = ktau_core::digest::content_check(c.snapshot().image());
            assert_eq!(check, want, "image check {check:#018x}");
        }
    }

    #[test]
    fn default_sched_params_survive() {
        let mut s = ClusterSpec::chiba(1);
        s.sched = SchedParams::default();
        let mut w = Writer::new();
        encode_spec(&mut w, &s);
        let bytes = w.into_vec();
        let back = decode_spec(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.sched, s.sched);
    }
}
