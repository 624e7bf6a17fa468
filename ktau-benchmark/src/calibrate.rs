//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants.  Their load moves the
//! speed of this process by 10 % and more for minutes at a time, which
//! shows as a level shift across whole runs that no median within a run
//! removes.  A
//! fixed kernel owned by the benchmark is therefore timed between
//! operations, and a run's host times are scaled by
//! [`REFERENCE_MS`] / (median kernel time).  The kernel calls no library
//! code, so no change to the system under test can move it.
//!
//! The kernel is an integer hash loop (core clock) followed by a chain of
//! dependent loads through a 1 MiB table (private-cache latency).  The two
//! halves track the two kinds of slowdown measured on the shared host.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, ms, on the reference host (a 2-vCPU Intel Xeon virtual
/// machine, measured while quiet).  Scaled times read as that host's.
pub const REFERENCE_MS: f64 = 6.75;

/// Minimum spacing of kernel samples.
const EVERY_MS: u128 = 250;
const HASH_ROUNDS: u64 = 2_000_000;
const CHASE_STEPS: usize = 400_000;
const TABLE_LEN: usize = 1 << 18;

/// Times the calibration kernel between operations.
pub struct Calibrator {
    /// One random cycle through every slot (Sattolo's shuffle), so each
    /// load depends on the previous one and prefetching cannot help.
    table: Vec<u32>,
    last: Option<Instant>,
    samples_ms: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut s = 1u64;
        for k in (1..TABLE_LEN).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            table.swap(k, (s >> 33) as usize % k);
        }
        Calibrator {
            table,
            last: None,
            samples_ms: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Times the kernel once, unless a sample was taken in the last 250 ms.
    pub fn sample_if_due(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_millis() < EVERY_MS)
        {
            return;
        }
        let t0 = Instant::now();
        let mut h = 0u64;
        for i in 0..HASH_ROUNDS {
            h = h.wrapping_mul(31).wrapping_add(i ^ (h >> 7));
        }
        black_box(h);
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.table[at as usize];
        }
        black_box(at);
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Kernel samples taken, ms.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// The factor a host time of this run is scaled by: [`REFERENCE_MS`]
    /// over the median kernel time.  `None` before the first sample.
    pub fn factor(&self) -> Option<f64> {
        (!self.samples_ms.is_empty()).then(|| REFERENCE_MS / median(&self.samples_ms))
    }
}
