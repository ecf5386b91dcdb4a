//! The workspace's content-key hash, shared by the simulation cache's
//! entry filenames ([`crate::simcache`]) and the report fingerprints of
//! `perf_smoke`.

/// 64-bit FNV-1a over a string — the workspace's content-key filename
/// hash. Not cryptographic; collisions are tolerated because the
/// simulation cache keeps the full key inside each entry and checks it on
/// load.
pub fn fnv1a_64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_64("a"), fnv1a_64("b"));
    }
}
