//! FNV-1a state digests.
//!
//! The dynticks engine and the all-heap reference engine must leave the
//! cluster in bit-identical externally-observable state for the same
//! workload.  That property is enforced by folding all of it into one 64-bit
//! FNV-1a hash: virtual time, per-task scheduler state, counters, and the
//! full measurement structures.  The fold lives in `ktau-core` so the kernel
//! model, the KTAD check digests and any external consistency checker all
//! hash the same way.

/// The FNV-1a 64-bit offset basis; start every digest from this.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds one byte into a running FNV-1a hash.
#[inline]
pub fn fnv_byte(h: &mut u64, b: u8) {
    *h ^= b as u64;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// Folds a 64-bit word (little-endian bytes) into a running FNV-1a hash.
#[inline]
pub fn fnv_word(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        fnv_byte(h, b);
    }
}

/// Folds a byte slice into a running FNV-1a hash.
#[inline]
pub fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        fnv_byte(h, b);
    }
}

/// A [`std::fmt::Write`] sink that folds everything written into a running
/// FNV-1a hash: `write!(FnvWriter(&mut h), ..)` digests formatted text
/// exactly as hashing the formatted `String` would, without building it.
pub struct FnvWriter<'a>(pub &'a mut u64);

impl std::fmt::Write for FnvWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        fnv_bytes(self.0, s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fold_matches_byte_fold() {
        let mut a = FNV_OFFSET;
        fnv_word(&mut a, 0x0123_4567_89AB_CDEF);
        let mut b = FNV_OFFSET;
        fnv_bytes(&mut b, &0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn writer_matches_hashing_the_formatted_string() {
        use std::fmt::Write;
        let comm = "comm";
        let text = format!("{comm}|{:?}", [1u64, 2]);
        let mut a = FNV_OFFSET;
        fnv_bytes(&mut a, text.as_bytes());
        let mut b = FNV_OFFSET;
        write!(FnvWriter(&mut b), "{comm}|{:?}", [1u64, 2]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn known_vector() {
        // Published FNV-1a 64-bit test vector: "a".
        let mut h = FNV_OFFSET;
        fnv_bytes(&mut h, b"a");
        assert_eq!(h, 0xaf63_dc4c_8601_ec8c);
    }
}
