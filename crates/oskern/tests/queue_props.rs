//! Property test pinning the tiered [`EventQueue`] to the reference model
//! it replaced: a single `BinaryHeap` ordered by the full
//! `(time, point, seq)` key.  Random interleavings of `push`, `push_at`,
//! and (deadline-bounded) pops must produce byte-identical pop sequences —
//! including tie storms at one nanosecond and deltas straddling the wheel
//! horizon, where entries change tier between the wheel and the overflow
//! heap.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ktau_core::time::Ns;
use ktau_oskern::{Event, EventQueue};

/// Mirrors `WHEEL_SLOTS << WHEEL_SHIFT` in `sim.rs` (8192 slots of 32.8 µs
/// ≈ 268 ms).  If those constants move, the boundary deltas below stop
/// landing exactly on the wheel/overflow edge but the test stays valid —
/// the wide deltas still exercise both tiers.
const HORIZON: u64 = 8192 << 15;

/// One scripted queue operation.
#[derive(Debug, Clone, Copy)]
enum QOp {
    /// `push(now + delta, ev)`.
    Push { delta: u64 },
    /// `push_at(now + delta, ev, now - back)` — an explicit, older push
    /// point, as the dynticks engine uses when re-arming parked ticks.
    PushAt { delta: u64, back: u64 },
    /// `pop_due(now + slack)`: pops only if the minimum is near enough.
    PopDue { slack: u64 },
    /// Unbounded `pop_due(Ns::MAX)`.
    Pop,
}

/// Deltas covering every tier: same-time cascades (tie storms), the
/// drain-run slot, typical wheel slots, the exact wheel/overflow boundary,
/// and far-future overflow entries.
fn arb_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..100,
        1_000u64..1_000_000,
        1_000_000u64..100_000_000,
        Just(HORIZON - 1),
        Just(HORIZON),
        Just(HORIZON + 1),
        Just(2 * HORIZON),
        Just(40 * HORIZON),
    ]
}

fn arb_op() -> impl Strategy<Value = QOp> {
    prop_oneof![
        arb_delta().prop_map(|delta| QOp::Push { delta }),
        (arb_delta(), 0u64..1_000_000).prop_map(|(delta, back)| QOp::PushAt { delta, back }),
        (0u64..2_000_000).prop_map(|slack| QOp::PopDue { slack }),
        Just(QOp::Pop),
    ]
}

/// The reference model: one binary heap over the full key, payloads looked
/// up by push index.  `seq` starts at 1 and increments once per push,
/// exactly like `EventQueue`.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(Ns, Ns, u64)>>,
    payload: Vec<Event>,
    seq: u64,
}

impl ModelQueue {
    fn push_at(&mut self, at: Ns, ev: Event, point: Ns) {
        self.seq += 1;
        self.payload.push(ev);
        self.heap.push(Reverse((at, point, self.seq)));
    }

    fn pop_due(&mut self, deadline: Ns) -> Option<(Ns, Ns, Event)> {
        let &Reverse((t, p, seq)) = self.heap.peek()?;
        if t > deadline {
            return None;
        }
        self.heap.pop();
        Some((t, p, self.payload[(seq - 1) as usize]))
    }
}

/// Runs one op script against both queues, checking every pop result, then
/// drains both to the end.  With `with_ticks`, every third push is a `Tick`
/// event, which shares the tiers with every other event; without it every
/// payload is distinct.
fn check_script(ops: &[QOp], with_ticks: bool) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    let mut m = ModelQueue::default();
    let mut now: Ns = 0;
    let mut pushed: u64 = 0;
    let step = |q: &mut EventQueue, m: &mut ModelQueue, now: &mut Ns, deadline: Ns| {
        let got = q.pop_due(deadline);
        let want = m.pop_due(deadline);
        prop_assert_eq!(got, want, "pop divergence at now={}", *now);
        if let Some((t, _, _)) = got {
            *now = t;
            q.set_now(t);
        }
        Ok(())
    };
    for &op in ops {
        match op {
            QOp::Push { delta } => {
                pushed += 1;
                // `gen` makes every payload distinguishable, so a slab
                // mix-up cannot masquerade as a correct pop; with ticks,
                // every third push is a Tick.
                let ev = if with_ticks && pushed.is_multiple_of(3) {
                    Event::Tick {
                        node: (pushed % 7) as u32,
                        cpu: (pushed % 2) as u8,
                    }
                } else {
                    Event::CpuDone {
                        node: (pushed % 5) as u32,
                        cpu: 0,
                        gen: pushed,
                    }
                };
                q.push(now + delta, ev);
                m.push_at(now + delta, ev, now);
            }
            QOp::PushAt { delta, back } => {
                pushed += 1;
                let ev = Event::Wake {
                    node: 0,
                    pid: ktau_oskern::Pid(pushed as u32),
                };
                let point = now.saturating_sub(back);
                q.push_at(now + delta, ev, point);
                m.push_at(now + delta, ev, point);
            }
            QOp::PopDue { slack } => {
                let deadline = now + slack;
                step(&mut q, &mut m, &mut now, deadline)?;
            }
            QOp::Pop => step(&mut q, &mut m, &mut now, Ns::MAX)?,
        }
        prop_assert_eq!(q.len(), m.heap.len(), "length divergence at now={}", now);
    }
    while !m.heap.is_empty() {
        step(&mut q, &mut m, &mut now, Ns::MAX)?;
    }
    prop_assert_eq!(q.pop_due(Ns::MAX), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Named for the tick lanes that armed ticks once lived in: a third of
    /// pushes are `Tick` events, now queued in the same tiers as the rest.
    #[test]
    fn queue_matches_heap_model_with_lanes(
        ops in proptest::collection::vec(arb_op(), 1..120)
    ) {
        check_script(&ops, true)?;
    }

    /// No `Tick` events: every payload is distinct, so any slab mix-up
    /// shows as a divergence.
    #[test]
    fn queue_matches_heap_model_all_heap(
        ops in proptest::collection::vec(arb_op(), 1..120)
    ) {
        check_script(&ops, false)?;
    }
}

/// Deterministic tie storm: many pushes at one nanosecond, ticks among
/// them, must pop in exact push (seq) order.
#[test]
fn tie_storm_pops_in_push_order() {
    let ev = |i: u64| {
        if i.is_multiple_of(3) {
            Event::Tick {
                node: i as u32,
                cpu: 0,
            }
        } else {
            Event::CpuDone {
                node: 0,
                cpu: 0,
                gen: i,
            }
        }
    };
    let mut q = EventQueue::new();
    let at = 1_000_000;
    for i in 0..200u64 {
        q.push(at, ev(i));
    }
    for i in 0..200u64 {
        let (t, _, got) = q.pop_due(Ns::MAX).expect("queue drained early");
        assert_eq!(t, at);
        assert_eq!(got, ev(i), "tie broken out of seq order at {i}");
    }
    assert!(q.pop_due(Ns::MAX).is_none());
}
