//! Deterministic random-number streams.
//!
//! Every stochastic entity in the simulation (frame-size jitter, feedback
//! timing jitter, cross-traffic arrivals, ...) draws from its own RNG whose
//! seed is *derived* from the experiment's base seed and a stable stream
//! identifier. This keeps runs reproducible and — crucially — keeps entities
//! independent: adding an RNG draw in one component never perturbs the
//! sequence seen by another.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The RNG type used throughout the simulator.
///
/// `SmallRng` (xoshiro256++ on 64-bit platforms) is fast and, seeded
/// explicitly, fully deterministic. It is *not* cryptographic, which is fine:
/// nothing here is adversarial.
pub type SimRng = SmallRng;

/// Derive an independent seed from `(base, stream)`.
///
/// Uses two rounds of the splitmix64 finalizer, which is the recommended way
/// to expand one seed into many decorrelated ones.
#[inline]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = splitmix64(z);
    z = splitmix64(z);
    z
}

/// Create a [`SimRng`] for `(base, stream)`.
#[inline]
pub fn rng_for(base: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(base, stream))
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a offset basis: the hash of no bytes, and where every digest starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a state `h`. Stable across platforms and Rust
/// versions, unlike `std::hash::DefaultHasher`.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Hash an arbitrary label (e.g. a condition name) into a stream id.
#[inline]
pub fn stream_id(label: &str) -> u64 {
    fnv1a(FNV_OFFSET, label.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_eq!(stream_id("stadia"), stream_id("stadia"));
    }

    #[test]
    fn streams_are_decorrelated() {
        // Different stream ids from the same base must give different seeds.
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn rng_sequences_reproduce() {
        let mut r1 = rng_for(1, 2);
        let mut r2 = rng_for(1, 2);
        for _ in 0..100 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn adjacent_streams_do_not_collide_over_a_range() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..10_000u64 {
            assert!(seen.insert(derive_seed(0xDEAD_BEEF, s)), "seed collision");
        }
    }

    #[test]
    fn label_hashing_distinguishes_labels() {
        assert_ne!(stream_id("stadia"), stream_id("luna"));
        assert_ne!(stream_id(""), stream_id(" "));
    }
}
