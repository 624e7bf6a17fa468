//! Seeded byte-level corruption shared by the decoder-totality suites
//! (`KTAU`/`KTAD`/ASCII profiles here, `KTAS` engine images in
//! `ktau-oskern`): a corruption generator plus a global allocator that
//! records the largest single allocation, so a suite can assert that a
//! decoder never reserves memory in proportion to a count its input merely
//! claims.  Include it with `#[path = ".../common/mutation.rs"] mod
//! mutation;` — it installs the test binary's global allocator.

use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation the current thread asks for.
struct MaxAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local bookkeeping neither allocates nor touches the memory.
unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: MaxAlloc = MaxAlloc;

/// Runs `f` and returns its result with the largest allocation it made.
pub fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let r = f();
    (r, LARGEST.with(Cell::get))
}

/// One random corruption of `bytes`.
pub fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>) {
    let len = bytes.len();
    match rng.below(4) {
        0 => bytes.truncate(rng.below(len as u64 + 1) as usize),
        1 => {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(len as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        2 => {
            for _ in 0..1 + rng.below(16) {
                bytes.push(rng.next_u64() as u8);
            }
        }
        _ => {
            // Counts and lengths are little-endian u32s: overwrite one
            // with a value far beyond the input.
            let big = [u32::MAX, u32::MAX - 1, 1 << 31, 1 << 24, len as u32 * 2];
            let v = big[rng.below(big.len() as u64) as usize];
            let i = rng.below(len.saturating_sub(3).max(1) as u64) as usize;
            for (k, b) in v.to_le_bytes().iter().enumerate() {
                if let Some(slot) = bytes.get_mut(i + k) {
                    *slot = *b;
                }
            }
        }
    }
}
