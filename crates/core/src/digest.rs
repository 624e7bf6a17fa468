//! FNV-1a state digests and the `KTAD` content check.
//!
//! The dynticks engine and the reference engine must leave the
//! cluster in bit-identical externally-observable state for the same
//! workload.  That property is enforced by folding all of it into one 64-bit
//! FNV-1a hash: virtual time, per-CPU accounting, per-task scheduler state
//! and counters, and the full measurement structures.  Tasks are hashed as
//! the bytes the `KTAS` image codec writes for them (less the
//! engine-dependent dirty generation), so the image and the digest share
//! one encoder per field group.  The fold lives in `ktau-core` so the
//! kernel model, the `KTAS` image check and any external consistency
//! checker all hash the same way.
//!
//! `KTAD` deltas check the full profile they reconstruct once per shipped
//! update, on the server and on every client, so they use
//! [`content_check`] instead: a word-parallel hash that costs a small
//! fraction of FNV-1a's byte-serial multiply chain.  Neither is a MAC; both
//! detect accidental divergence, not a forger.

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

/// Odd, bit-balanced constants (wyhash's secret).
const SECRET: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// The 128-bit product of two words with its halves folded together.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// Folds one 32-byte block into two independent lanes, two little-endian
/// words each, so every host computes the same value.
#[inline]
fn fold_block(lanes: &mut [u64; 2], block: &[u8; 32]) {
    let word = |i: usize| {
        let mut w = [0; 8];
        w.copy_from_slice(&block[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    };
    lanes[0] = fold_mul(word(0) ^ SECRET[0], word(1) ^ lanes[0]);
    lanes[1] = fold_mul(word(2) ^ SECRET[1], word(3) ^ lanes[1]);
}

/// A 64-bit content hash of `bytes`, the `KTAD` delta check: 32-byte blocks
/// across two lanes, the tail zero-padded to a block, the total length
/// mixed in (so zero padding cannot alias a longer input), then the
/// murmur3 finalizer.
pub fn content_check(bytes: &[u8]) -> u64 {
    let mut lanes = [SECRET[2], SECRET[3]];
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        fold_block(&mut lanes, block);
    }
    if !tail.is_empty() {
        let mut block = [0; 32];
        block[..tail.len()].copy_from_slice(tail);
        fold_block(&mut lanes, &block);
    }
    let mut h = fold_mul(lanes[0] ^ bytes.len() as u64, lanes[1] ^ SECRET[0]);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reproducible pseudo-random buffer: the low byte of each splitmix64
    /// output.
    fn seeded(len: usize) -> Vec<u8> {
        let mut x = 0x5EED_0C7Au64;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn content_check_pinned_values() {
        let buf = seeded(4096);
        let got: Vec<(usize, u64)> = [0, 1, 7, 8, 31, 32, 33, 4096]
            .into_iter()
            .map(|n| (n, content_check(&buf[..n])))
            .collect();
        let want = [
            (0, 0xfde7_4ce3_4369_99a0),
            (1, 0xe9f8_4aa5_752d_ecf4),
            (7, 0xebb0_9bb1_eaa3_a730),
            (8, 0xbd0f_53e5_ea08_1e8c),
            (31, 0x1fe4_5f85_7c5c_dd9a),
            (32, 0xd4ba_e01c_893a_c452),
            (33, 0x7208_76c0_dbbc_b40e),
            (4096, 0x60ba_30fd_a0c4_5677),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn content_check_length_is_not_aliased_by_zero_padding() {
        assert_ne!(content_check(b"a"), content_check(b"a\0"));
        let zeros = [0u8; 64];
        let mut seen: Vec<u64> = (0..=64).map(|n| content_check(&zeros[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 65, "all-zero buffers of lengths 0..=64 collide");
    }

    #[test]
    fn content_check_sees_every_single_bit_flip() {
        let mut buf = seeded(4096);
        let clean = content_check(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(content_check(&buf), clean, "flip of bit {bit} went unseen");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn word_fold_matches_byte_fold() {
        let mut a = FNV_OFFSET;
        fnv_word(&mut a, 0x0123_4567_89AB_CDEF);
        let mut b = FNV_OFFSET;
        fnv_bytes(&mut b, &0x0123_4567_89AB_CDEFu64.to_le_bytes());
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
