//! Stable content hashing for cache keys.
//!
//! Cache keys must be identical across processes, builds, and Rust versions,
//! so [`std::hash`] (whose `Hasher` is seeded per-process for HashMaps and
//! whose algorithm is unspecified) cannot be used.  This module hand-rolls
//! SipHash-2-4 — the classic short-input PRF — with *fixed* keys, and a
//! [`Fingerprint`] is two independent 64-bit SipHash runs over the same
//! byte stream (128 bits total), which makes accidental collisions across a
//! cache directory's lifetime negligible.

/// SipHash-2-4 of `data` under the 128-bit key `(k0, k1)`.
pub(crate) fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = 0x736f6d6570736575u64 ^ k0;
    let mut v1 = 0x646f72616e646f6du64 ^ k1;
    let mut v2 = 0x6c7967656e657261u64 ^ k0;
    let mut v3 = 0x7465646279746573u64 ^ k1;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let m = u64::from_le_bytes(chunk.try_into().unwrap());
        v3 ^= m;
        sipround!();
        sipround!();
        v0 ^= m;
    }
    // Final block: remaining bytes plus the length in the top byte.
    let rest = chunks.remainder();
    let mut last = (data.len() as u64 & 0xff) << 56;
    for (i, &b) in rest.iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    v3 ^= last;
    sipround!();
    sipround!();
    v0 ^= last;
    v2 ^= 0xff;
    sipround!();
    sipround!();
    sipround!();
    sipround!();
    v0 ^ v1 ^ v2 ^ v3
}

/// A 128-bit stable content fingerprint — the cache key type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Lower-case hex form used as the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

// Fixed key pairs for the two independent SipHash lanes.  Arbitrary but
// frozen: changing them invalidates every existing cache entry (by design —
// treat them as part of the entry-format version).
const LANE_A: (u64, u64) = (0x716c732d63616368, 0x652d6c616e652d41); // "qls-cach","e-lane-A"
const LANE_B: (u64, u64) = (0x716c732d63616368, 0x652d6c616e652d42); // "qls-cach","e-lane-B"

/// Incremental builder of a [`Fingerprint`] over typed inputs.
///
/// Every `write_*` method is length- or tag-delimited, so distinct input
/// *sequences* produce distinct byte streams (no concatenation ambiguity:
/// `("ab", "c")` and `("a", "bc")` hash differently).  Floats are hashed by
/// IEEE-754 bit pattern — the same discipline the bit-identity tests use —
/// so `-0.0 != 0.0` and every NaN payload is distinct.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    buf: Vec<u8>,
}

impl FingerprintBuilder {
    /// Start a fingerprint in a named domain (e.g. `"qsvt-phases"`).  The
    /// domain separates key spaces: identical payloads in different domains
    /// never collide.
    pub fn new(domain: &str) -> Self {
        let mut b = FingerprintBuilder { buf: Vec::new() };
        b.write_str(domain);
        b
    }

    /// Append raw bytes, length-prefixed.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Append a UTF-8 string, length-prefixed.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    /// Append a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `usize` (widened to `u64`).
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Append an `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Append a slice of `f64` by bit pattern, length-prefixed.
    pub fn write_f64_slice(&mut self, vs: &[f64]) -> &mut Self {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Append a slice of `usize`, length-prefixed.
    pub fn write_usize_slice(&mut self, vs: &[usize]) -> &mut Self {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&(v as u64).to_le_bytes());
        }
        self
    }

    /// Finish: two independent SipHash-2-4 lanes over the accumulated bytes.
    pub fn finish(&self) -> Fingerprint {
        let a = siphash24(LANE_A.0, LANE_A.1, &self.buf);
        let b = siphash24(LANE_B.0, LANE_B.1, &self.buf);
        Fingerprint(((a as u128) << 64) | b as u128)
    }
}

/// A 64-bit fingerprint of *this machine's platform class*, for cache
/// entries whose floats depend on the platform: fused circuits multiply gate
/// matrices built with the platform's `sin`/`cos`, so their products can
/// differ in the last bit between platforms.  Coarse on purpose:
/// architecture, OS, and SIMD capability — enough that an artifact cache
/// copied between unlike machines misses instead of replaying another
/// platform's floats, while rebuilds on the same machine hit.
pub fn machine_fingerprint() -> u64 {
    let mut b = FingerprintBuilder::new("machine");
    b.write_str(std::env::consts::ARCH);
    b.write_str(std::env::consts::OS);
    #[cfg(target_arch = "x86_64")]
    b.write_u64(u64::from(std::arch::is_x86_feature_detected!("avx2")));
    #[cfg(not(target_arch = "x86_64"))]
    b.write_u64(2);
    b.finish().0 as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siphash24_matches_reference_vectors() {
        // The reference test vector from the SipHash paper: key
        // 000102…0f, messages 00, 0001, 000102, … — spot-check a few.
        let k0 = 0x0706050403020100u64;
        let k1 = 0x0f0e0d0c0b0a0908u64;
        let msg: Vec<u8> = (0u8..15).collect();
        let expected: [(usize, u64); 4] = [
            (0, 0x726fdb47dd0e0e31),
            (1, 0x74f839c593dc67fd),
            (8, 0x93f5f5799a932462),
            (15, 0xa129ca6149be45e5),
        ];
        for (len, want) in expected {
            assert_eq!(siphash24(k0, k1, &msg[..len]), want, "len {len}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_input_sensitive() {
        let fp = |f: &dyn Fn(&mut FingerprintBuilder)| {
            let mut b = FingerprintBuilder::new("test");
            f(&mut b);
            b.finish()
        };
        let base = fp(&|b| {
            b.write_f64_slice(&[1.0, 2.0]);
        });
        // Deterministic across calls.
        assert_eq!(
            base,
            fp(&|b| {
                b.write_f64_slice(&[1.0, 2.0]);
            })
        );
        // Sensitive to values, length splits, and domains.
        assert_ne!(
            base,
            fp(&|b| {
                b.write_f64_slice(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
            })
        );
        assert_ne!(
            base,
            fp(&|b| {
                b.write_f64_slice(&[1.0]);
                b.write_f64_slice(&[2.0]);
            })
        );
        assert_ne!(base, FingerprintBuilder::new("other").finish());
        // -0.0 and 0.0 are distinct inputs (bit-pattern hashing).
        assert_ne!(
            fp(&|b| {
                b.write_f64(0.0);
            }),
            fp(&|b| {
                b.write_f64(-0.0);
            })
        );
    }

    #[test]
    fn machine_fingerprint_is_stable_within_a_process() {
        assert_eq!(machine_fingerprint(), machine_fingerprint());
    }
}
