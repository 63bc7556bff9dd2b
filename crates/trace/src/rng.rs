//! The random stream behind every synthetic trace.
//!
//! The generators stand in for the paper's CVP-1 traces, so this stream is
//! part of what defines the benchmark suite: the same seed must give the
//! same draws for as long as [`GEN_CODE_VERSION`](crate::GEN_CODE_VERSION)
//! says the generators are unchanged. It is xoshiro256++ (Blackman &
//! Vigna) seeded through splitmix64, with Lemire's multiply-shift for
//! ranges and 53-bit doubles. Any change to a formula here changes every
//! trace and needs a version bump; the digests in
//! `tests/determinism_pins.rs` catch one that slips through.

use std::ops::Range;

/// xoshiro256++: a small, fast, deterministic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256pp {
    /// The generator whose state is four successive splitmix64 outputs
    /// from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        Xoshiro256pp {
            s: [splitmix64(&mut st), splitmix64(&mut st), splitmix64(&mut st), splitmix64(&mut st)],
        }
    }

    /// The next 64-bit word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A double in `[0, 1)` from the word's 53 high bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from the half-open `range`: `start` plus the high
    /// word of `next_u64() * (end - start)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = range.end - range.start;
        range.start + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// `true` with probability `p`: a [`next_f64`](Self::next_f64) draw
    /// below `p`, so `p <= 0` is never and `p >= 1` always.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::Xoshiro256pp;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            assert_eq!(rng.gen_range(0..1), 0);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
    }

    #[test]
    fn full_u64_range_samples() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(rng.gen_range(0..u64::MAX) < u64::MAX);
        }
    }
}
