//! Disk geometry: cylinders × heads × sectors-per-track, and the mapping
//! between linear sector addresses and physical positions.

use crate::SectorAddr;

/// Physical position of a sector on the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chs {
    /// Cylinder (radial position of the head assembly).
    pub cylinder: u32,
    /// Head (which platter surface).
    pub head: u32,
    /// Sector index within the track.
    pub sector: u32,
}

/// Disk geometry.
///
/// Linear sector addresses are laid out track-major within a cylinder:
/// address 0 is cylinder 0 / head 0 / sector 0; addresses then run along the
/// track, then to the next head of the same cylinder, then to the next
/// cylinder. Consecutive addresses on the same cylinder therefore transfer
/// without seeking, which is the locality property the paper's design leans
/// on ("Information that is needed, generated, recovered, or retrieved
/// together benefits from proximity on the disk", §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Number of cylinders.
    pub cylinders: u32,
    /// Number of heads (tracks per cylinder).
    pub heads: u32,
    /// Number of sectors per track.
    pub sectors_per_track: u32,
}

impl DiskGeometry {
    /// Geometry of the ~300 MB Trident-class drive the paper measured on:
    /// 815 cylinders × 19 heads × 38 sectors × 512 B ≈ 300 MB.
    pub const TRIDENT_T300: Self = Self {
        cylinders: 815,
        heads: 19,
        sectors_per_track: 38,
    };

    /// A tiny geometry for unit tests (64 cylinders × 2 heads × 16 sectors
    /// = 2048 sectors = 1 MB).
    pub const TINY: Self = Self {
        cylinders: 64,
        heads: 2,
        sectors_per_track: 16,
    };

    /// Total number of sectors on the volume.
    pub fn total_sectors(&self) -> u32 {
        self.cylinders * self.heads * self.sectors_per_track
    }

    /// Number of sectors in one cylinder.
    pub fn sectors_per_cylinder(&self) -> u32 {
        self.heads * self.sectors_per_track
    }

    /// Maps a linear sector address to its physical position.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the end of the volume.
    pub fn to_chs(&self, addr: SectorAddr) -> Chs {
        assert!(addr < self.total_sectors(), "sector {addr} out of range");
        let spc = self.sectors_per_cylinder();
        let cylinder = addr / spc;
        let within = addr % spc;
        Chs {
            cylinder,
            head: within / self.sectors_per_track,
            sector: within % self.sectors_per_track,
        }
    }

    /// Maps a physical position back to a linear sector address.
    pub fn to_addr(&self, chs: Chs) -> SectorAddr {
        chs.cylinder * self.sectors_per_cylinder() + chs.head * self.sectors_per_track + chs.sector
    }

    /// Returns the cylinder containing `addr`.
    pub fn cylinder_of(&self, addr: SectorAddr) -> u32 {
        addr / self.sectors_per_cylinder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trident_is_about_300_mb() {
        let g = DiskGeometry::TRIDENT_T300;
        let bytes = g.total_sectors() as u64 * crate::SECTOR_BYTES as u64;
        assert!((290..320).contains(&(bytes / 1_000_000)), "{bytes}");
    }

    #[test]
    fn chs_roundtrip() {
        let g = DiskGeometry::TINY;
        for addr in [0, 1, 15, 16, 31, 32, 100, g.total_sectors() - 1] {
            assert_eq!(g.to_addr(g.to_chs(addr)), addr);
        }
    }

    #[test]
    fn address_zero_is_origin() {
        let g = DiskGeometry::TINY;
        assert_eq!(
            g.to_chs(0),
            Chs {
                cylinder: 0,
                head: 0,
                sector: 0
            }
        );
    }

    #[test]
    fn sequential_addresses_stay_on_cylinder() {
        let g = DiskGeometry::TINY;
        // First 32 sectors (2 heads × 16 sectors) are all cylinder 0.
        for addr in 0..g.sectors_per_cylinder() {
            assert_eq!(g.cylinder_of(addr), 0);
        }
        assert_eq!(g.cylinder_of(g.sectors_per_cylinder()), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chs_out_of_range_panics() {
        let g = DiskGeometry::TINY;
        let _ = g.to_chs(g.total_sectors());
    }
}
