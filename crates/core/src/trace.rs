//! Per-process circular trace buffers (paper §4.2).
//!
//! "When tracing is used, a fixed size circular trace buffer (of configurable
//! length) is created for each process.  Using this scheme, trace data may be
//! lost if the buffer is not read fast enough by user-space applications or
//! daemons."  [`TraceBuffer`] reproduces exactly that: bounded, overwriting
//! oldest records, counting losses, drained by `/proc/ktau/trace` reads.

use crate::event::EventId;
use crate::time::Ns;
use crate::wire::{CodecError, Reader, Writer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracePoint {
    /// Entry into an instrumented region.
    Entry,
    /// Exit from an instrumented region.
    Exit,
    /// Atomic event with its value.
    Atomic(u64),
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual timestamp.
    pub ts_ns: Ns,
    /// Which instrumentation point fired.
    pub event: EventId,
    /// Entry, exit or atomic.
    pub point: TracePoint,
}

/// Fixed-capacity circular trace buffer with loss accounting.
///
/// ```
/// use ktau_core::trace::{TraceBuffer, TraceRecord, TracePoint};
/// use ktau_core::event::EventId;
///
/// let mut tb = TraceBuffer::new(2);
/// for ts in 0..5 {
///     tb.push(TraceRecord { ts_ns: ts, event: EventId(0), point: TracePoint::Entry });
/// }
/// assert_eq!(tb.len(), 2);     // oldest records overwritten...
/// assert_eq!(tb.lost(), 3);    // ...and the loss is accounted
/// assert_eq!(tb.drain()[0].ts_ns, 3);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    lost: u64,
    total: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` records.  Panics when
    /// `capacity == 0` — a zero-length kernel trace buffer is a
    /// misconfiguration.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer capacity must be non-zero");
        TraceBuffer {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            lost: 0,
            total: 0,
        }
    }

    /// Appends a record, discarding the oldest when full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.lost += 1;
        }
        self.buf.push_back(rec);
        self.total += 1;
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records overwritten before being read.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total records ever pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Non-destructive view of buffered records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Destructive read (what a `/proc/ktau/trace` read performs): returns
    /// and removes all buffered records, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }

    /// Serializes the buffer — capacity, loss accounting, and every buffered
    /// record in order — for the engine snapshot image.
    pub fn encode_wire(&self, w: &mut Writer) {
        w.u64(self.capacity as u64);
        w.u64(self.lost);
        w.u64(self.total);
        w.u32(self.buf.len() as u32);
        for rec in &self.buf {
            w.u64(rec.ts_ns);
            w.u32(rec.event.0);
            match rec.point {
                TracePoint::Entry => w.u8(0),
                TracePoint::Exit => w.u8(1),
                TracePoint::Atomic(v) => {
                    w.u8(2);
                    w.u64(v);
                }
            }
        }
    }

    /// Inverse of [`TraceBuffer::encode_wire`].
    pub fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let capacity = r.u64()? as usize;
        if capacity == 0 {
            return Err(CodecError::BadField("trace capacity"));
        }
        let lost = r.u64()?;
        let total = r.u64()?;
        let n = r.counted(13, "trace record count")?;
        if n > capacity {
            return Err(CodecError::BadField("trace length"));
        }
        // Reserve for the records present, not the claimed capacity: the
        // ring grows toward `capacity` as records arrive.
        let mut buf = VecDeque::with_capacity(n);
        for _ in 0..n {
            let ts_ns = r.u64()?;
            let event = EventId(r.u32()?);
            let point = match r.u8()? {
                0 => TracePoint::Entry,
                1 => TracePoint::Exit,
                2 => TracePoint::Atomic(r.u64()?),
                _ => return Err(CodecError::BadField("trace point")),
            };
            buf.push_back(TraceRecord {
                ts_ns,
                event,
                point,
            });
        }
        Ok(TraceBuffer {
            buf,
            capacity,
            lost,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: Ns, ev: u32) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            event: EventId(ev),
            point: TracePoint::Entry,
        }
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let mut t = TraceBuffer::new(8);
        for i in 0..5 {
            t.push(rec(i, i as u32));
        }
        let out = t.drain();
        assert_eq!(out.len(), 5);
        assert!(out.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
        assert!(t.is_empty());
        assert_eq!(t.lost(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_loss() {
        let mut t = TraceBuffer::new(3);
        for i in 0..10 {
            t.push(rec(i, 0));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.lost(), 7);
        assert_eq!(t.total(), 10);
        let out = t.drain();
        assert_eq!(out[0].ts_ns, 7);
        assert_eq!(out[2].ts_ns, 9);
    }

    #[test]
    fn drain_resets_content_but_not_loss_counter() {
        let mut t = TraceBuffer::new(2);
        t.push(rec(0, 0));
        t.push(rec(1, 0));
        t.push(rec(2, 0));
        assert_eq!(t.lost(), 1);
        t.drain();
        assert_eq!(t.lost(), 1);
        t.push(rec(3, 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = TraceBuffer::new(0);
    }

    #[test]
    fn atomic_records_carry_values() {
        let mut t = TraceBuffer::new(4);
        t.push(TraceRecord {
            ts_ns: 1,
            event: EventId(9),
            point: TracePoint::Atomic(1460),
        });
        let point = t.iter().next().unwrap().point;
        match point {
            TracePoint::Atomic(v) => assert_eq!(v, 1460),
            _ => panic!("expected atomic"),
        }
    }
}
