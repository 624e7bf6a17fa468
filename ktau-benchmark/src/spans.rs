//! Outside spans around the benchmark's calls into each layer.
//!
//! A span records `{name, layer, start_ns, end_ns, parent}` plus the engine
//! dispatch time the self-profiler banked while it was open, so a layer's
//! self time can subtract both its child spans and the dispatch work that
//! ran inside it.  Spans are kept in memory and written out once, after the
//! run.  When the recorder is disabled (untraced runs) `span` only calls its
//! closure.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of engine dispatch time, which no span encloses on its own: it is
/// carved out of whichever span was open while the self-profiler banked it.
pub const DISPATCH: &str = "dispatch";
/// Layer of the benchmark's own loop glue: not a layer of the system.
pub const BENCH: &str = "bench";
/// Layer of correctness checks run inside the measured phase; excluded from
/// the wall the layers must cover.
pub const CHECK: &str = "check";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Engine dispatch ns banked while the span was open (children
    /// included).
    pub dispatch_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time per layer and per `(layer, name)`, in ns.
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    /// Self ns per layer; dispatch time is its own layer.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Self ns per `(layer, span name)`.
    pub by_name: BTreeMap<(&'static str, &'static str), u64>,
    /// Total ns of [`CHECK`] spans.
    pub check_ns: u64,
}

/// In-memory span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn dispatch_ns_total() -> u64 {
    ktau_core::selfprof::snapshot().dispatch_ns.iter().sum()
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let d0 = dispatch_ns_total();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            dispatch_ns: d0,
        });
        self.open.push(id);
        let out = f(self);
        self.close_to(self.open.len() - 1);
        out
    }

    /// Open-span depth, to restore with [`Spans::close_to`] after a caught
    /// panic.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` (their closures unwound).
    pub fn close_to(&mut self, depth: usize) {
        let d = dispatch_ns_total();
        let now = self.now_ns();
        while self.open.len() > depth {
            let id = self.open.pop().expect("depth checked above");
            let s = &mut self.spans[id];
            s.end_ns = now;
            s.dispatch_ns = d - s.dispatch_ns;
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every closed span, folded by layer and by name.
    pub fn self_times(&self) -> SelfTimes {
        let n = self.spans.len();
        let mut child_dur = vec![0u64; n];
        let mut child_disp = vec![0u64; n];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_dur[p] += s.dur();
                child_disp[p] += s.dispatch_ns;
            }
        }
        let mut t = SelfTimes::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.layer == CHECK {
                t.check_ns += s.dur();
                continue;
            }
            let disp = s.dispatch_ns.saturating_sub(child_disp[i]);
            let own = s.dur().saturating_sub(child_dur[i]).saturating_sub(disp);
            *t.by_layer.entry(s.layer).or_default() += own;
            *t.by_name.entry((s.layer, s.name)).or_default() += own;
            *t.by_layer.entry(DISPATCH).or_default() += disp;
            *t.by_name.entry((DISPATCH, DISPATCH)).or_default() += disp;
        }
        t
    }

    /// The spans as JSON objects.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("layer".into(), Value::Str(s.layer.into())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("dispatch_ns".into(), Value::U64(s.dispatch_ns)),
                    ])
                })
                .collect(),
        )
    }
}
