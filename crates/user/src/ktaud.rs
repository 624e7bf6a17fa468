//! KTAUD — the KTAU daemon (paper §4.5).
//!
//! "KTAUD periodically extracts profile and trace data from the kernel.  It
//! can be configured to gather information for all processes or a subset of
//! processes."  Here the daemon has two halves, as in reality:
//!
//! * an **on-node cost**: a daemon process spawned on each monitored node
//!   that periodically wakes and burns the CPU cost of walking
//!   `/proc/ktau` (this is the perturbation a daemon-based model causes —
//!   one of the paper's arguments for daemon-less self-profiling);
//! * the **collection**: [`KtaudService`] sweeps every monitored node's live
//!   processes each period and serves any number of subscribed clients.
//!   Each subscription's [`SubscriptionFilter`] picks all processes or a
//!   subset (nodes, pids, applications only); its first poll ships full
//!   profiles and later polls ship incremental `KTAD` deltas.  A sweep is
//!   O(active): it skips unchanged profiles via the kernel's dirty-marking
//!   generation.
//!
//! The service and its client mirrors ([`KtaudMirror`]) hold profiles as
//! [`EncodedProfile`]s — the `/proc/ktau` bytes indexed by row — and diff,
//! splice and compare them as bytes; nothing on the update path decodes a
//! profile into a [`ProfileSnapshot`].  A client that wants full profiles
//! decodes its mirror with [`KtaudMirror::get`].

use crate::libktau::{ktau_read_profile, KtauError};
use ktau_core::snapshot::{EncodedProfile, ProfileSnapshot};
use ktau_core::time::Ns;
use ktau_oskern::{Cluster, FnProgram, Op, Pid, TaskKind, TaskSpec};
use std::collections::{btree_map, BTreeMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed per-wake cost of waking up and opening `/proc/ktau`.
const SWEEP_BASE_NS: Ns = 500_000;
/// Marginal cost of sizing + reading one live task's profile.
const SWEEP_PER_TASK_NS: Ns = 250_000;

/// CPU nanoseconds one daemon wake costs when `live_tasks` profiles are
/// walked — the model behind the on-node perturbation.
fn sweep_cost_ns(live_tasks: usize) -> Ns {
    SWEEP_BASE_NS + SWEEP_PER_TASK_NS * live_tasks as u64
}

/// Per-interval rate of one kernel event across one process's series of
/// snapshots: `(interval end, calls/sec)` — online rate monitoring, the
/// "provide online information" objective from the paper's §3.  Each
/// interval runs from one snapshot's `taken_ns` to the next one's.
///
/// A counter that *regresses* between snapshots (profile reset, or a new
/// process observed under a reused pid) yields no rate for that interval;
/// the baseline restarts from the new count instead of underflowing.
pub fn event_rate(series: &[ProfileSnapshot], event: &str) -> Vec<(Ns, f64)> {
    let mut out = Vec::new();
    let mut prev: Option<(Ns, u64)> = None;
    for p in series {
        let count = p.kernel_event(event).map(|r| r.stats.count).unwrap_or(0);
        if let Some((t0, c0)) = prev {
            let dt = (p.taken_ns.saturating_sub(t0)) as f64 / 1e9;
            if let Some(diff) = count.checked_sub(c0) {
                if dt > 0.0 {
                    out.push((p.taken_ns, diff as f64 / dt));
                }
            }
        }
        prev = Some((p.taken_ns, count));
    }
    out
}

/// runKtau (paper §4.5): like `time(1)`, runs a job and returns its
/// detailed KTAU profile after it completes.
pub fn run_ktau(
    cluster: &mut Cluster,
    node: u32,
    spec: TaskSpec,
    deadline_ns: Ns,
) -> Result<ProfileSnapshot, KtauError> {
    let pid = cluster.spawn(node, spec);
    cluster.run_until_apps_exit(deadline_ns);
    crate::libktau::ktau_get_profile(cluster, node, pid)
}

// ---------------------------------------------------------------------------
// The monitoring service
// ---------------------------------------------------------------------------

/// Which profiles one subscriber wants shipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriptionFilter {
    /// Restrict to these nodes (`None` = every monitored node).
    pub nodes: Option<Vec<u32>>,
    /// Restrict to these pids (`None` = every process).
    pub pids: Option<Vec<u32>>,
    /// Application processes only (drop daemons and idle threads).
    pub apps_only: bool,
}

impl SubscriptionFilter {
    /// Everything the service sweeps.
    pub fn all() -> Self {
        Self::default()
    }

    /// Only the given nodes.
    pub fn for_nodes(nodes: Vec<u32>) -> Self {
        SubscriptionFilter {
            nodes: Some(nodes),
            ..Self::default()
        }
    }

    /// Only the given pids.
    pub fn for_pids(pids: Vec<u32>) -> Self {
        SubscriptionFilter {
            pids: Some(pids),
            ..Self::default()
        }
    }

    /// Application processes only.
    pub fn apps_only() -> Self {
        SubscriptionFilter {
            apps_only: true,
            ..Self::default()
        }
    }

    fn admits(&self, node: u32, pid: u32, is_app: bool) -> bool {
        if let Some(nodes) = &self.nodes {
            if !nodes.contains(&node) {
                return false;
            }
        }
        if let Some(pids) = &self.pids {
            if !pids.contains(&pid) {
                return false;
            }
        }
        !self.apps_only || is_app
    }
}

/// Handle for one subscribed client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientId(usize);

/// One update shipped to a client by [`KtaudService::poll`].
#[derive(Debug, Clone)]
pub enum PollItem {
    /// Complete binary-encoded profile: first contact with this process, or
    /// the client's cursor gapped behind the server's retained delta.
    FullSync {
        /// Node the process runs on.
        node: u32,
        /// Process id.
        pid: u32,
        /// `encode_profile` bytes of the current snapshot.
        bytes: Vec<u8>,
    },
    /// Incremental binary delta against the snapshot at the client's cursor.
    Delta {
        /// Node the process runs on.
        node: u32,
        /// Process id.
        pid: u32,
        /// `encode_delta` bytes advancing the cursor by one sequence.
        bytes: Vec<u8>,
    },
    /// The process left the live set (exited); the client should drop it.
    Removed {
        /// Node the process ran on.
        node: u32,
        /// Process id.
        pid: u32,
    },
}

/// Per-client shipping accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Full snapshots shipped (first contact or cursor gap).
    pub full_syncs: u64,
    /// Incremental deltas shipped.
    pub delta_syncs: u64,
    /// Up-to-date entries skipped (nothing shipped).
    pub skipped: u64,
    /// Removal notices shipped.
    pub removed: u64,
    /// Bytes shipped as full snapshots.
    pub bytes_full: u64,
    /// Bytes shipped as deltas.
    pub bytes_delta: u64,
}

impl ClientStats {
    /// Total payload bytes shipped to this client.
    pub fn bytes_shipped(&self) -> u64 {
        self.bytes_full + self.bytes_delta
    }
}

/// Server-side sweep accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sweeps performed.
    pub sweeps: u64,
    /// Profiles captured and encoded (the generation said "dirty").
    pub captures: u64,
    /// Live profiles skipped without capture (generation unchanged).
    pub gen_skips: u64,
    /// Captures whose content turned out unchanged (e.g. only an open
    /// activation moved): recorded, but no new sequence was minted.
    pub unchanged_captures: u64,
}

struct Entry {
    profile: EncodedProfile,
    gen: u64,
    seq: u64,
    /// The most recent delta, as `(base_seq, encoded bytes)`; always spans
    /// `seq - 1 → seq`.  Clients exactly one sweep behind take it; anyone
    /// further behind takes a full sync.
    delta: Option<(u64, Vec<u8>)>,
    is_app: bool,
    /// The last sweep that found the process live.
    swept: u64,
}

struct ClientSession {
    filter: SubscriptionFilter,
    /// Per (node, pid): the sequence number of the snapshot this client has
    /// reconstructed.
    cursors: BTreeMap<(u32, u32), u64>,
    stats: ClientStats,
}

/// KTAUD as a long-running monitoring service: one server-side store of
/// per-process profiles, updated by O(active) sweeps, serving any number of
/// subscribed clients incremental deltas through poll cursors.
///
/// Per process the store holds the latest [`EncodedProfile`] (the raw
/// `/proc/ktau` read, indexed by row), its generation and sequence number,
/// and the encoded delta that reached it.  A changed capture costs one
/// kernel encode, one row-index parse and one byte-level diff.
///
/// Invariants:
///
/// * a sweep touches live tasks only, and captures a profile only when its
///   kernel-side generation moved (dirty-marking) — unchanged profiles cost
///   one integer compare;
/// * `apply(base, delta) == full` is checked (delta check digests), and a
///   client mirror's reconstructed bytes are identical to the server's
///   full encoding — enforced in tests and by `ktaud_scale --check` in CI.
pub struct KtaudService {
    period_ns: Ns,
    nodes: Vec<u32>,
    daemon_pids: Vec<(u32, Pid)>,
    /// Per node: the shared cell the daemon reads its next wake's sweep cost
    /// (in ns) from.  Updated before every period from the live-task count,
    /// so daemon perturbation tracks load instead of freezing at install.
    cost_cells: Vec<(u32, Arc<AtomicU64>)>,
    store: BTreeMap<(u32, u32), Entry>,
    clients: Vec<ClientSession>,
    stats: ServiceStats,
}

impl KtaudService {
    /// Installs the service on the given nodes: spawns one on-node daemon
    /// process per node, sweeping every `period_ns`, and prepares an empty
    /// store.
    pub fn install(cluster: &mut Cluster, nodes: &[u32], period_ns: Ns) -> Self {
        let mut daemon_pids = Vec::new();
        let mut cost_cells = Vec::new();
        for &n in nodes {
            // The daemon sleeps for a period, then burns the CPU cost of
            // walking `/proc/ktau` for every live process.  The cost is
            // re-read from the shared cell and converted to cycles at every
            // wake: it scales with how many tasks the node is running, and
            // the resulting compute chunk goes through the node's normal
            // busy path, where CPU-degradation faults stretch it.
            let cell = Arc::new(AtomicU64::new(sweep_cost_ns(
                cluster.node(n).proc_live_pids().len(),
            )));
            let freq = cluster.node(n).freq;
            let prog = {
                let cell = Arc::clone(&cell);
                let mut sleeping = false;
                FnProgram(move || {
                    sleeping = !sleeping;
                    if sleeping {
                        Op::Sleep(period_ns)
                    } else {
                        Op::Compute(freq.ns_to_cycles(cell.load(Ordering::Relaxed)))
                    }
                })
            };
            let pid = cluster.spawn(n, TaskSpec::daemon("ktaud", Box::new(prog)));
            daemon_pids.push((n, pid));
            cost_cells.push((n, cell));
        }
        KtaudService {
            period_ns,
            nodes: nodes.to_vec(),
            daemon_pids,
            cost_cells,
            store: BTreeMap::new(),
            clients: Vec::new(),
            stats: ServiceStats::default(),
        }
    }

    /// The on-node daemon pids, as `(node, pid)`.
    pub fn daemon_pids(&self) -> &[(u32, Pid)] {
        &self.daemon_pids
    }

    /// Registers a client session; its first [`KtaudService::poll`] full-syncs
    /// everything the filter admits.
    pub fn subscribe(&mut self, filter: SubscriptionFilter) -> ClientId {
        self.clients.push(ClientSession {
            filter,
            cursors: BTreeMap::new(),
            stats: ClientStats::default(),
        });
        ClientId(self.clients.len() - 1)
    }

    /// Advances the cluster one period and refreshes the store from the
    /// live tasks of every monitored node.
    pub fn sweep(&mut self, cluster: &mut Cluster) -> Result<(), KtauError> {
        // Each daemon's next wake costs the walk of its node's current
        // live tasks.
        for (n, cell) in &self.cost_cells {
            let live = cluster.node(*n).proc_live_pids().len();
            cell.store(sweep_cost_ns(live), Ordering::Relaxed);
        }
        cluster.run_for(self.period_ns);
        self.stats.sweeps += 1;
        let sweep = self.stats.sweeps;
        for &n in &self.nodes {
            let node = cluster.node(n);
            for pid in node.proc_live_pids() {
                let gen = node.profile_gen(pid)?;
                let is_app = || node.task(pid).map(|t| t.kind == TaskKind::App) == Some(true);
                // The read goes through libKtau's session-less `/proc/ktau`
                // protocol like any other client, but the daemon amortizes
                // it: the previous read's size seeds the buffer, skipping
                // the size pass in steady state.
                match self.store.entry((n, pid.0)) {
                    btree_map::Entry::Occupied(mut o) => {
                        let e = o.get_mut();
                        e.swept = sweep;
                        if e.gen == gen {
                            self.stats.gen_skips += 1;
                            continue;
                        }
                        self.stats.captures += 1;
                        let profile = ktau_read_profile(cluster, n, pid, e.profile.bytes().len())?;
                        e.gen = gen;
                        if e.profile.same_content(&profile) {
                            // Generation moved but nothing observable did
                            // (e.g. an entry probe opened an activation that
                            // has not completed): no new sequence.
                            self.stats.unchanged_captures += 1;
                            continue;
                        }
                        e.delta = Some((e.seq, e.profile.delta(&profile, e.seq, e.seq + 1)));
                        e.seq += 1;
                        e.profile = profile;
                        e.is_app = is_app();
                    }
                    btree_map::Entry::Vacant(v) => {
                        self.stats.captures += 1;
                        v.insert(Entry {
                            profile: ktau_read_profile(cluster, n, pid, 0)?,
                            gen,
                            seq: 1,
                            delta: None,
                            is_app: is_app(),
                            swept: sweep,
                        });
                    }
                }
            }
        }
        // Processes that left the live set (exited) drop out of the store;
        // clients learn through removal notices at their next poll.
        self.store.retain(|_, e| e.swept == sweep);
        Ok(())
    }

    /// Runs `n` sweeps.
    pub fn run(&mut self, cluster: &mut Cluster, n: usize) -> Result<(), KtauError> {
        for _ in 0..n {
            self.sweep(cluster)?;
        }
        Ok(())
    }

    /// Ships everything `client` is missing: removal notices for processes
    /// that disappeared, a delta for every profile exactly one sequence
    /// ahead of the client's cursor, and a full sync on first contact or
    /// when the cursor gapped.  Up-to-date profiles ship nothing.
    pub fn poll(&mut self, client: ClientId) -> Vec<PollItem> {
        let c = &mut self.clients[client.0];
        let mut out = Vec::new();
        let gone: Vec<(u32, u32)> = c
            .cursors
            .keys()
            .filter(|k| !self.store.contains_key(k))
            .copied()
            .collect();
        for k in gone {
            c.cursors.remove(&k);
            c.stats.removed += 1;
            out.push(PollItem::Removed {
                node: k.0,
                pid: k.1,
            });
        }
        for (&(node, pid), e) in &self.store {
            if !c.filter.admits(node, pid, e.is_app) {
                continue;
            }
            // Sequences start at 1, so a fresh cursor of 0 is first contact.
            let cur = c.cursors.entry((node, pid)).or_insert(0);
            match &e.delta {
                _ if *cur == e.seq => {
                    c.stats.skipped += 1;
                }
                Some((base, bytes)) if *base == *cur && *cur + 1 == e.seq => {
                    c.stats.delta_syncs += 1;
                    c.stats.bytes_delta += bytes.len() as u64;
                    *cur = e.seq;
                    out.push(PollItem::Delta {
                        node,
                        pid,
                        bytes: bytes.clone(),
                    });
                }
                _ => {
                    let bytes = e.profile.bytes().to_vec();
                    c.stats.full_syncs += 1;
                    c.stats.bytes_full += bytes.len() as u64;
                    *cur = e.seq;
                    out.push(PollItem::FullSync { node, pid, bytes });
                }
            }
        }
        out
    }

    /// Makes `client`'s next poll ship a full sync for one process, however
    /// far its cursor is.  `poll` advances a cursor as it ships, so a
    /// client whose mirror rejected a delta still holds the old baseline,
    /// and every later delta targets a baseline it does not have; resyncing
    /// is how it recovers.  A process the client never received is left
    /// alone: its first poll full-syncs anyway.
    pub fn resync(&mut self, client: ClientId, node: u32, pid: u32) {
        if let Some(cur) = self.clients[client.0].cursors.get_mut(&(node, pid)) {
            // Sequences start at 1: a cursor of 0 reads as first contact.
            *cur = 0;
        }
    }

    /// Shipping accounting for one client.
    pub fn client_stats(&self, client: ClientId) -> ClientStats {
        self.clients[client.0].stats
    }

    /// Server-side sweep accounting.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Number of processes currently tracked.
    pub fn tracked(&self) -> usize {
        self.store.len()
    }

    /// The server's current full binary encoding for one process — the
    /// byte-identity reference a client reconstruction is checked against.
    pub fn encoded_full(&self, node: u32, pid: u32) -> Option<&[u8]> {
        self.store.get(&(node, pid)).map(|e| e.profile.bytes())
    }
}

/// Client-side reconstruction state: applies [`PollItem`]s to one
/// [`EncodedProfile`] per process.  Full syncs are parsed, deltas spliced
/// onto the stored bytes with their check digest verified, so
/// [`KtaudMirror::encoded`] is byte-identical to the server's full encoding
/// — the lossless invariant the test suite and `ktaud_scale --check`
/// enforce.  [`KtaudMirror::get`] decodes on demand.
#[derive(Default)]
pub struct KtaudMirror {
    profiles: BTreeMap<(u32, u32), EncodedProfile>,
}

impl KtaudMirror {
    /// An empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one shipped update.  Deltas verify their check digest; a
    /// delta arriving without (or against the wrong) baseline is an error,
    /// never silent drift, and leaves the stored profile as it was.  After
    /// an error, [`KtaudService::resync`] the process before polling again.
    pub fn apply(&mut self, item: &PollItem) -> Result<(), KtauError> {
        let decode_err = |e: ktau_core::snapshot::CodecError| KtauError::Decode(e.to_string());
        match item {
            PollItem::FullSync { node, pid, bytes } => {
                let profile = EncodedProfile::parse(bytes.clone()).map_err(decode_err)?;
                self.profiles.insert((*node, *pid), profile);
            }
            PollItem::Delta { node, pid, bytes } => {
                let base = self
                    .profiles
                    .get_mut(&(*node, *pid))
                    .ok_or_else(|| KtauError::Decode("delta without a baseline".into()))?;
                *base = base.apply(bytes).map_err(decode_err)?;
            }
            PollItem::Removed { node, pid } => {
                self.profiles.remove(&(*node, *pid));
            }
        }
        Ok(())
    }

    /// Applies a whole poll batch.
    pub fn apply_all(&mut self, items: &[PollItem]) -> Result<(), KtauError> {
        for item in items {
            self.apply(item)?;
        }
        Ok(())
    }

    /// The reconstructed snapshot for one process, decoded.
    pub fn get(&self, node: u32, pid: u32) -> Option<ProfileSnapshot> {
        self.profiles.get(&(node, pid)).map(EncodedProfile::decode)
    }

    /// A copy of the reconstructed encoding for one process (byte-identity
    /// checks).
    pub fn encoded(&self, node: u32, pid: u32) -> Option<Vec<u8>> {
        self.profiles.get(&(node, pid)).map(|p| p.bytes().to_vec())
    }

    /// Iterates reconstructed `((node, pid), profile)` entries.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), &EncodedProfile)> {
        self.profiles.iter().map(|(k, v)| (*k, v))
    }

    /// Number of processes mirrored.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the mirror is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktau_core::time::NS_PER_SEC;
    use ktau_oskern::{ClusterSpec, NoiseSpec, OpList};

    fn quiet(n: usize) -> Cluster {
        let mut s = ClusterSpec::chiba(n);
        s.noise = NoiseSpec::silent();
        Cluster::new(s)
    }

    #[test]
    fn ktaud_collects_growing_history() {
        let mut c = quiet(2);
        c.spawn(
            0,
            TaskSpec::app(
                "w",
                Box::new(OpList::new(vec![Op::Compute(2 * 450_000_000)])),
            ),
        );
        let mut d = KtaudService::install(&mut c, &[0, 1], NS_PER_SEC / 2);
        let client = d.subscribe(SubscriptionFilter::all());
        let mut mirror = KtaudMirror::new();
        let mut times = Vec::new();
        let mut seen = Vec::new();
        for _ in 0..4 {
            d.sweep(&mut c).unwrap();
            mirror.apply_all(&d.poll(client)).unwrap();
            times.push(c.now());
            seen.push(mirror.iter().any(|(_, p)| p.decode().comm == "w"));
        }
        assert_eq!(d.stats().sweeps, 4);
        // Sweeps advance monotonically by the period.
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        // The worker's profile is visible in every sweep taken while it
        // computes (~2 s).
        assert!(seen[..3].iter().all(|&s| s), "worker missing: {seen:?}");
    }

    #[test]
    fn ktaud_daemon_costs_cpu_on_node() {
        let mut c = quiet(1);
        let mut d = KtaudService::install(&mut c, &[0], NS_PER_SEC / 10);
        d.run(&mut c, 20).unwrap();
        let (n, pid) = d.daemon_pids()[0];
        let t = c.node(n).task(pid).unwrap();
        assert!(t.cpu_ns > 0, "daemon never consumed CPU");
    }

    #[test]
    fn run_ktau_returns_profile_like_time_command() {
        let mut c = quiet(1);
        let snap = run_ktau(
            &mut c,
            0,
            TaskSpec::app(
                "job",
                Box::new(OpList::new(vec![Op::SyscallNull, Op::Compute(450_000)])),
            ),
            10 * NS_PER_SEC,
        )
        .unwrap();
        assert_eq!(snap.comm, "job");
        assert!(snap.kernel_event("sys_getpid").is_some());
    }

    /// Regression (pre-fix `event_rate` computed `count - c0` on `u64`):
    /// a counter that regresses between sweeps — profile reset, or a new
    /// process under a reused pid — must not underflow/panic; the baseline
    /// restarts and rates resume from the new process's counts.
    #[test]
    fn event_rate_survives_counter_regression_and_pid_reuse() {
        use ktau_core::snapshot::EventRow;
        use ktau_core::{EntryExitStats, Group};
        let snap = |taken_ns: Ns, count: u64| ProfileSnapshot {
            pid: 7,
            comm: "reused".into(),
            node: 0,
            taken_ns,
            kernel_events: vec![EventRow {
                name: "sys_getpid".into(),
                group: Group::Syscall,
                stats: EntryExitStats {
                    count,
                    incl_ns: count * 10,
                    excl_ns: count * 10,
                    min_incl_ns: 10,
                    max_incl_ns: 10,
                },
            }],
            ..Default::default()
        };
        // Counts 100 → 600 → (pid reused, new process) 5 → 25.
        let series = [
            snap(NS_PER_SEC, 100),
            snap(2 * NS_PER_SEC, 600),
            snap(3 * NS_PER_SEC, 5),
            snap(4 * NS_PER_SEC, 25),
        ];
        let rates = event_rate(&series, "sys_getpid");
        // The regression interval yields no rate; the two monotone
        // intervals yield 500/s and 20/s.
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0], (2 * NS_PER_SEC, 500.0));
        assert_eq!(rates[1], (4 * NS_PER_SEC, 20.0));
    }
}
