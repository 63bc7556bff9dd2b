//! Content hashing for store keys and file checksums.
//!
//! All hashing is FNV-1a (64-bit), [`chirp_trace::hash`]'s: the trace
//! codec folds every byte it decodes or encodes into the same checksum,
//! so an archived file's checksum comes out of the pass that reads or
//! writes it. This module adds the fixed-width hex form used in file
//! names, manifest lines and ledger keys.

pub use chirp_trace::hash::{fnv64, Fnv64};

/// Formats a hash as the fixed-width lowercase hex used in file names and
/// ledger keys.
pub fn hex16(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses the [`hex16`] representation back into a hash.
pub fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for h in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex16(&hex16(h)), Some(h));
        }
        assert_eq!(parse_hex16("xyz"), None);
        assert_eq!(parse_hex16("0"), None);
    }
}
