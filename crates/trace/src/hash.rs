//! FNV-1a (64-bit) hashing of trace bytes and store keys.
//!
//! Dependency-free and stable across platforms and Rust versions —
//! unlike `DefaultHasher`, whose output may change between releases —
//! which matters because keys and checksums are persisted on disk and
//! must stay comparable across builds. It lives beside the codec so the
//! decoder and encoder can fold every byte they touch into a checksum in
//! the same pass; `chirp-store` re-exports it.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a string field with a length prefix, so adjacent fields
    /// cannot collide by shifting bytes between them.
    pub fn update_field(&mut self, field: &str) -> &mut Self {
        self.update(&(field.len() as u64).to_le_bytes());
        self.update(field.as_bytes())
    }

    /// Absorbs a `u64` in little-endian order.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot hash of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_framing_prevents_shift_collisions() {
        let mut a = Fnv64::new();
        a.update_field("ab").update_field("c");
        let mut b = Fnv64::new();
        b.update_field("a").update_field("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
