//! Data-size and data-rate units.
//!
//! The paper's experimental parameters are expressed in megabits per second
//! (link capacities of 15/25/35 Mb/s) and in multiples of the
//! bandwidth-delay product (queue sizes of 0.5x/2x/7x BDP). [`Bytes`] and
//! [`BitRate`] make that arithmetic explicit and overflow-safe.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A byte count (payload sizes, queue occupancy, window sizes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// The raw count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This many bytes expressed in bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest byte.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Bytes {
        debug_assert!(k >= 0.0);
        Bytes((self.0 as f64 * k).round() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(rhs.0 <= self.0, "byte count underflow");
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{} B", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1} kB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{:.2} MB", self.0 as f64 / 1e6)
        }
    }
}

/// A data rate in bits per second.
///
/// Rates are stored in bits/s (not bytes/s) because that is how link
/// capacities are quoted by `tc tbf` and by the paper itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitRate(pub u64);

impl BitRate {
    /// Zero rate.
    pub const ZERO: BitRate = BitRate(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }

    /// Construct from kilobits per second.
    #[inline]
    pub const fn from_kbps(kbps: u64) -> Self {
        BitRate(kbps * 1_000)
    }

    /// Construct from megabits per second (integer).
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        BitRate(mbps * 1_000_000)
    }

    /// Construct from megabits per second (fractional).
    #[inline]
    pub fn from_mbps_f64(mbps: f64) -> Self {
        debug_assert!(mbps >= 0.0 && mbps.is_finite());
        BitRate((mbps * 1e6).round().max(0.0) as u64)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        BitRate(gbps * 1_000_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Megabits per second as a float (reporting).
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `size` onto a link of this rate.
    ///
    /// Returns [`SimDuration::MAX`] for a zero rate (a stalled link never
    /// finishes transmitting).
    #[inline]
    pub fn tx_time(self, size: Bytes) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // ns = bits * 1e9 / rate; widen to u128 so 64 kB at 1 kb/s cannot
        // overflow the intermediate product.
        let ns = (size.bits() as u128 * 1_000_000_000u128) / self.0 as u128;
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Bandwidth-delay product for a given round-trip time, in bytes.
    ///
    /// This is the quantity the paper sizes router queues against
    /// (0.5x, 2x, 7x BDP).
    #[inline]
    pub fn bdp(self, rtt: SimDuration) -> Bytes {
        let bits = (self.0 as u128 * rtt.as_nanos() as u128) / 1_000_000_000u128;
        Bytes((bits / 8).min(u64::MAX as u128) as u64)
    }

    /// Bytes delivered in `dur` at this rate.
    #[inline]
    pub fn bytes_in(self, dur: SimDuration) -> Bytes {
        self.bdp(dur)
    }

    /// Scale by a non-negative factor (pacing gains and the like).
    #[inline]
    pub fn mul_f64(self, k: f64) -> BitRate {
        debug_assert!(k >= 0.0);
        let v = self.0 as f64 * k;
        BitRate(if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        })
    }

    /// Rate achieved by delivering `bytes` over `dur`; `None` if `dur` is
    /// zero (undefined rate).
    #[inline]
    pub fn from_delivery(bytes: Bytes, dur: SimDuration) -> Option<BitRate> {
        if dur.is_zero() {
            return None;
        }
        let bps = (bytes.bits() as u128 * 1_000_000_000u128) / dur.as_nanos() as u128;
        Some(BitRate(bps.min(u64::MAX as u128) as u64))
    }
}

impl fmt::Debug for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Mb/s", self.as_mbps())
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mb/s", self.as_mbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_arithmetic() {
        assert_eq!(Bytes(100) + Bytes(50), Bytes(150));
        assert_eq!(Bytes(100) - Bytes(50), Bytes(50));
        assert_eq!(Bytes(10).saturating_sub(Bytes(20)), Bytes::ZERO);
        assert_eq!(Bytes(1000).bits(), 8000);
        assert_eq!(Bytes(100).mul_f64(0.5), Bytes(50));
    }

    #[test]
    fn rate_construction() {
        assert_eq!(BitRate::from_mbps(25).as_bps(), 25_000_000);
        assert_eq!(BitRate::from_mbps_f64(2.5).as_bps(), 2_500_000);
        assert_eq!(BitRate::from_gbps(1).as_mbps(), 1000.0);
        assert_eq!(BitRate::from_kbps(512).as_bps(), 512_000);
    }

    #[test]
    fn tx_time_exact() {
        // 1500 bytes at 12 Mb/s = 12000 bits / 12e6 bps = 1 ms.
        let r = BitRate::from_mbps(12);
        assert_eq!(r.tx_time(Bytes(1500)), SimDuration::from_millis(1));
        // Zero rate never completes.
        assert_eq!(BitRate::ZERO.tx_time(Bytes(1)), SimDuration::MAX);
        // Zero bytes are instantaneous.
        assert_eq!(r.tx_time(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn bdp_matches_paper_setup() {
        // 25 Mb/s with the paper's 16.5 ms RTT: BDP = 25e6 * 0.0165 / 8 bytes.
        let bdp = BitRate::from_mbps(25).bdp(SimDuration::from_micros(16_500));
        assert_eq!(bdp.as_u64(), 51_562);
        // 2x BDP queue:
        assert_eq!(bdp.mul_f64(2.0).as_u64(), 103_124);
    }

    #[test]
    fn delivery_rate_round_trip() {
        let r = BitRate::from_mbps(10);
        let d = SimDuration::from_millis(100);
        let b = r.bytes_in(d);
        let back = BitRate::from_delivery(b, d).unwrap();
        // Integer truncation may lose <1 byte worth of rate.
        assert!((back.as_bps() as i64 - r.as_bps() as i64).abs() < 100);
        assert_eq!(BitRate::from_delivery(Bytes(1), SimDuration::ZERO), None);
    }

    #[test]
    fn no_overflow_on_large_values() {
        let r = BitRate::from_kbps(1);
        let t = r.tx_time(Bytes(100_000_000)); // 100 MB at 1 kb/s
        assert_eq!(t.as_secs_f64(), 800_000.0);
        let big = BitRate::from_gbps(100).bdp(SimDuration::from_secs(10));
        assert_eq!(big.as_u64(), 125_000_000_000);
    }
}
