//! 64-bit FNV-1a, the workspace's stable byte hash: trace checksums,
//! result-store file names and rendezvous ownership are all built on it,
//! so its output must never change.

/// The FNV-1a offset basis: the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a hash `seed` (start from [`FNV_OFFSET`]) over
/// `bytes`.  Hashing `a` then `b` equals hashing `a ++ b`.
#[inline]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn continuation_equals_concatenation() {
        let v = 0x0123_4567_89ab_cdefu64.to_le_bytes();
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"key|"), &v),
            fnv1a(FNV_OFFSET, &[&b"key|"[..], &v].concat())
        );
    }
}
