//! The disk timing model.
//!
//! The paper's §6 model reasons about five quantities: seeks, short seeks
//! ("a few cylinders"), latencies ("half a revolution"), lost revolutions,
//! and transfer time. This module defines those quantities for a drive; the
//! simulator in [`crate::disk`] charges them mechanically, and the analytic
//! model in the `cedar-model` crate composes them by hand for validation.

use crate::clock::Micros;

/// Timing parameters of a simulated drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskTiming {
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Number of sectors per track (must match the geometry; used to derive
    /// per-sector transfer time).
    pub sectors_per_track: u32,
    /// A seek of at most this many cylinders is a "short seek".
    pub short_seek_cylinders: u32,
    /// Time for a short seek, including settle.
    pub short_seek_us: Micros,
    /// Base component of a long seek (arm acceleration + settle).
    pub seek_base_us: Micros,
    /// Distance-dependent component: multiplied by √distance (cylinders).
    pub seek_per_sqrt_cyl_us: Micros,
}

impl DiskTiming {
    /// Timing of the ~300 MB Trident-class drive of the Dorado era:
    /// 3600 RPM (16.67 ms/revolution), ~6 ms track-to-track, ~28 ms average
    /// seek, ~55 ms full stroke.
    ///
    /// With 815 cylinders, average seek distance ≈ 815/3 ≈ 272 cylinders;
    /// `5_000 + 1_400·√272 ≈ 28.1 ms`, and full stroke
    /// `5_000 + 1_400·√815 ≈ 45 ms`.
    pub const TRIDENT_T300: Self = Self {
        rpm: 3600,
        sectors_per_track: 38,
        short_seek_cylinders: 5,
        short_seek_us: 6_000,
        seek_base_us: 5_000,
        seek_per_sqrt_cyl_us: 1_400,
    };

    /// Timing matched to [`crate::DiskGeometry::TINY`] for unit tests.
    pub const TINY: Self = Self {
        rpm: 3600,
        sectors_per_track: 16,
        short_seek_cylinders: 5,
        short_seek_us: 6_000,
        seek_base_us: 5_000,
        seek_per_sqrt_cyl_us: 1_400,
    };

    /// Duration of one full revolution.
    pub fn revolution_us(&self) -> Micros {
        60_000_000 / self.rpm as Micros
    }

    /// Time to transfer one sector (one sector's angular width).
    pub fn sector_us(&self) -> Micros {
        self.revolution_us() / self.sectors_per_track as Micros
    }

    /// Average rotational latency: half a revolution.
    pub fn latency_us(&self) -> Micros {
        self.revolution_us() / 2
    }

    /// Seek time for a move of `distance` cylinders.
    ///
    /// Zero distance costs nothing; distances within
    /// [`Self::short_seek_cylinders`] cost [`Self::short_seek_us`]; longer
    /// seeks follow the `base + k·√d` curve typical of voice-coil actuators.
    pub fn seek_us(&self, distance: u32) -> Micros {
        if distance == 0 {
            0
        } else if distance <= self.short_seek_cylinders {
            self.short_seek_us
        } else {
            self.seek_base_us + self.seek_per_sqrt_cyl_us * isqrt(distance as u64)
        }
    }

    /// Average seek time assuming uniformly random start/end cylinders on a
    /// volume of `cylinders` cylinders (average distance ≈ cylinders/3).
    pub fn average_seek_us(&self, cylinders: u32) -> Micros {
        self.seek_us(cylinders / 3)
    }
}

/// Integer square root (floor).
fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revolution_at_3600_rpm_is_16_67_ms() {
        assert_eq!(DiskTiming::TRIDENT_T300.revolution_us(), 16_666);
    }

    #[test]
    fn sector_time_divides_revolution() {
        let t = DiskTiming::TRIDENT_T300;
        assert_eq!(t.sector_us(), 16_666 / 38);
    }

    #[test]
    fn latency_is_half_revolution() {
        let t = DiskTiming::TRIDENT_T300;
        assert_eq!(t.latency_us(), t.revolution_us() / 2);
    }

    #[test]
    fn zero_seek_is_free() {
        assert_eq!(DiskTiming::TRIDENT_T300.seek_us(0), 0);
    }

    #[test]
    fn short_seek_is_flat() {
        let t = DiskTiming::TRIDENT_T300;
        assert_eq!(t.seek_us(1), t.short_seek_us);
        assert_eq!(t.seek_us(5), t.short_seek_us);
    }

    #[test]
    fn long_seeks_grow_with_distance() {
        let t = DiskTiming::TRIDENT_T300;
        assert!(t.seek_us(100) < t.seek_us(400));
        assert!(t.seek_us(400) < t.seek_us(814));
    }

    #[test]
    fn average_seek_is_about_28ms() {
        let t = DiskTiming::TRIDENT_T300;
        let avg = t.average_seek_us(815);
        assert!((25_000..31_000).contains(&avg), "{avg}");
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(815), 28);
    }
}
