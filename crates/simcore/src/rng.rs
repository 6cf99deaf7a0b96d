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

pub use rand::Rng;

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

/// Run the property `name` on `cases` inputs: case `k` gets its own
/// [`SimRng`], seeded from the name's [`stream_id`] and `k`, so every case
/// is independent and replays run-to-run. A panicking case is re-raised
/// with the property name, the case index and the seed in the message.
/// There is no shrinking: the failing case is reported as drawn.
pub fn for_each_case(name: &str, cases: u32, mut body: impl FnMut(&mut SimRng)) {
    for k in 0..cases {
        let seed = stream_id(name) ^ (u64::from(k) << 32 | u64::from(k));
        let mut rng = SimRng::seed_from_u64(seed);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = run {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            panic!("property {name} failed at case {k} (seed {seed:#018x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The first three draws of a case, pinned: a property's inputs stay
    /// the ones its cases were written and last passed against.
    #[test]
    fn case_streams_are_pinned() {
        for (name, case, want) in [
            (
                "x",
                3,
                [
                    0x10d3_3fd0_a139_3716,
                    0x76af_469a_d6db_9806,
                    0xa5b8_1654_d57a_3a50,
                ],
            ),
            (
                "engine_delivers_in_order",
                0,
                [
                    0x7dc7_748e_b948_17da,
                    0x74e6_6238_3f30_5210,
                    0x6ea4_b1e3_fa41_ed8c,
                ],
            ),
        ] {
            let mut last = [0u64; 3];
            for_each_case(name, case + 1, |rng| {
                last = [rng.gen(), rng.gen(), rng.gen()]
            });
            assert_eq!(last, want, "{name} case {case}");
        }
    }

    #[test]
    fn a_failing_case_names_property_case_and_seed() {
        let mut runs = 0;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_case("fails_at_case_2", 4, |_| {
                runs += 1;
                assert!(runs < 3, "planted failure");
            })
        }))
        .expect_err("case 2 panics");
        assert_eq!(runs, 3, "no case runs after the failing one");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        let seed = stream_id("fails_at_case_2") ^ (2 << 32 | 2);
        for part in [
            "fails_at_case_2",
            "case 2",
            &format!("{seed:#018x}"),
            "planted failure",
        ] {
            assert!(msg.contains(part), "{part:?} missing from {msg:?}");
        }
    }
}
