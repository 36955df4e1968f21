//! Version semantics of the name table, held against `MemFs` where the
//! model can say (create and delete are a stack per name) and asserted
//! directly where it cannot (explicit versions, gaps, keep pruning).
//!
//! The scripts are shaped to make one name's versions span several
//! name-table leaves and to leave stale separators behind: a lookup of
//! "the newest version" that is routed by the end of the name's key
//! range has to find its answer in whichever leaf holds it.

use cedar_fs_repro::cfs::{CfsConfig, CfsVolume};
use cedar_fs_repro::disk::{CpuModel, SimDisk};
use cedar_fs_repro::fsd::{FsdConfig, FsdVolume};
use cedar_vol::fs::{CedarFsError, FileInfo, FsBackend};
use cedar_workload::steps::content_for;
use cedar_workload::MemFs;

/// A name long enough that forty of its versions need three leaves.
const NAME: &str = "dir/a-name-long-enough-that-its-versions-span-several-leaves";
/// `NAME` is a prefix of its neighbour: `file` / `file2`.
const NEIGHBOUR: &str = "dir/a-name-long-enough-that-its-versions-span-several-leaves2";

/// What the scripts need beyond [`FsBackend`]: explicit versions.
trait Versioned: FsBackend {
    fn open_version(&mut self, name: &str, version: u32) -> Result<u32, CedarFsError>;
    fn delete_version(&mut self, name: &str, version: u32) -> Result<(), CedarFsError>;
    /// Every version of exactly `name`, ascending.
    fn versions(&mut self, name: &str) -> Vec<u32>;
    fn check(&mut self);
}

impl Versioned for FsdVolume {
    fn open_version(&mut self, name: &str, version: u32) -> Result<u32, CedarFsError> {
        Ok(self.open(name, Some(version))?.name.version)
    }
    fn delete_version(&mut self, name: &str, version: u32) -> Result<(), CedarFsError> {
        Ok(self.delete(name, Some(version))?)
    }
    fn versions(&mut self, name: &str) -> Vec<u32> {
        let all = FsdVolume::list(self, name).unwrap();
        all.into_iter()
            .filter(|(f, _)| f.name == name)
            .map(|(f, _)| f.version)
            .collect()
    }
    fn check(&mut self) {
        self.verify().unwrap();
    }
}

impl Versioned for CfsVolume {
    fn open_version(&mut self, name: &str, version: u32) -> Result<u32, CedarFsError> {
        Ok(self.open(name, Some(version))?.name.version)
    }
    fn delete_version(&mut self, name: &str, version: u32) -> Result<(), CedarFsError> {
        Ok(self.delete(name, Some(version))?)
    }
    fn versions(&mut self, name: &str) -> Vec<u32> {
        let all = self.list_names(name).unwrap();
        all.into_iter()
            .filter(|(f, _)| f.name == name)
            .map(|(f, _)| f.version)
            .collect()
    }
    fn check(&mut self) {
        self.verify().unwrap();
    }
}

fn fsd(nt_pages: u32) -> FsdVolume {
    FsdVolume::format(
        SimDisk::tiny(),
        FsdConfig {
            nt_pages,
            log_sectors: 256,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap()
}

fn cfs(nt_pages: u32) -> CfsVolume {
    CfsVolume::format(
        SimDisk::tiny(),
        CfsConfig {
            nt_pages,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Contents that differ per version, so a read names the version it got.
fn body(name: &str, nth: u32) -> Vec<u8> {
    content_for(name, 1 + u64::from(nth) % 7)
}

/// One verb on the volume and on the model; the answers must agree.
fn both<T: PartialEq + std::fmt::Debug>(
    vol: &mut dyn FsBackend,
    model: &mut MemFs,
    what: &str,
    f: impl Fn(&mut dyn FsBackend) -> Result<T, CedarFsError>,
) -> Option<T> {
    let got = f(vol);
    let want = f(model);
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g, w, "{what}");
            Some(g)
        }
        (Err(CedarFsError::NotFound(_)), Err(CedarFsError::NotFound(_))) => None,
        (g, w) => panic!("{what}: volume {g:?}, model {w:?}"),
    }
}

/// Open, read and the whole listing agree with the model.
fn same_view(vol: &mut dyn FsBackend, model: &mut MemFs, names: &[&str]) {
    for name in names {
        both(vol, model, &format!("open {name}"), |fs| fs.open(name));
        both(vol, model, &format!("read {name}"), |fs| fs.read(name));
    }
    both(vol, model, "list", |fs| fs.list(""));
}

/// The part `MemFs` can referee: versions of a name are a stack.
fn stack_script<V: Versioned>(vol: &mut V) {
    let mut model = MemFs::default();
    let names = [NAME, NEIGHBOUR, "dir/a", "dir/z", "e"];
    let mut nth = 0;
    let mut create = |vol: &mut V, model: &mut MemFs, name: &str| -> FileInfo {
        nth += 1;
        let data = body(name, nth);
        both(vol, model, &format!("create {name} #{nth}"), |fs| {
            fs.create(name, &data)
        })
        .unwrap()
    };

    // Neighbours on both sides first, then forty versions interleaved
    // with two of the name they are a prefix of.
    for name in ["dir/a", "dir/z", "e"] {
        create(vol, &mut model, name);
    }
    for v in 1..=40 {
        assert_eq!(create(vol, &mut model, NAME).version, v);
        if v % 15 == 0 {
            create(vol, &mut model, NEIGHBOUR);
        }
        same_view(vol, &mut model, &[NAME]);
    }
    assert_eq!(vol.versions(NAME), (1..=40).collect::<Vec<_>>());
    assert_eq!(vol.versions(NEIGHBOUR), vec![1, 2]);
    same_view(vol, &mut model, &names);

    // Delete the newest, create over it: forty again.
    both(vol, &mut model, "delete newest", |fs| fs.delete(NAME));
    same_view(vol, &mut model, &names);
    assert_eq!(create(vol, &mut model, NAME).version, 40);
    same_view(vol, &mut model, &names);

    // Delete every version, newest first; the neighbour is untouched
    // and the name starts again at version 1.
    for left in (0..40).rev() {
        both(vol, &mut model, "delete", |fs| fs.delete(NAME));
        same_view(vol, &mut model, &[NAME, NEIGHBOUR]);
        assert_eq!(vol.versions(NAME).len(), left);
    }
    assert!(matches!(vol.delete(NAME), Err(CedarFsError::NotFound(_))));
    assert!(matches!(vol.open(NAME), Err(CedarFsError::NotFound(_))));
    assert_eq!(vol.versions(NEIGHBOUR), vec![1, 2]);
    assert_eq!(create(vol, &mut model, NAME).version, 1);
    same_view(vol, &mut model, &names);
    vol.check();
}

/// Explicit versions and gaps: deleting from the middle leaves
/// separators that name keys no longer in the tree.
fn gap_script<V: Versioned>(vol: &mut V) {
    for name in ["dir/a", NEIGHBOUR, "dir/z"] {
        vol.create(name, b"n").unwrap();
    }
    for v in 1..=40 {
        assert_eq!(vol.create(NAME, &body(NAME, v)).unwrap().version, v);
    }
    // A whole middle stretch goes, leaf boundaries included.
    for v in 10..=35 {
        vol.delete_version(NAME, v).unwrap();
        assert_eq!(vol.open(NAME).unwrap().version, 40);
    }
    let survivors: Vec<u32> = (1..10).chain(36..=40).collect();
    assert_eq!(vol.versions(NAME), survivors);
    assert_eq!(vol.open_version(NAME, 5).unwrap(), 5);
    assert_eq!(vol.open_version(NAME, 36).unwrap(), 36);
    for gone in [10, 20, 35, 41] {
        assert!(matches!(
            vol.open_version(NAME, gone),
            Err(CedarFsError::NotFound(_))
        ));
        assert!(matches!(
            vol.delete_version(NAME, gone),
            Err(CedarFsError::NotFound(_))
        ));
    }
    assert_eq!(vol.read(NAME).unwrap(), body(NAME, 40));

    // The newest side goes too: the newest survivor now lives leaves
    // away from where the end of the name's range routes.
    for v in (36..=40).rev() {
        assert_eq!(vol.open(NAME).unwrap().version, v);
        vol.delete(NAME).unwrap();
    }
    assert_eq!(vol.open(NAME).unwrap().version, 9);
    assert_eq!(vol.read(NAME).unwrap(), body(NAME, 9));
    // The next version follows the newest survivor, not the gap.
    assert_eq!(vol.create(NAME, &body(NAME, 10)).unwrap().version, 10);
    assert_eq!(vol.read(NAME).unwrap(), body(NAME, 10));
    assert_eq!(vol.versions(NAME), (1..=10).collect::<Vec<_>>());

    // Oldest first this time, down to nothing; then version 1 again.
    for v in 1..=10 {
        vol.delete_version(NAME, v).unwrap();
    }
    assert!(matches!(vol.open(NAME), Err(CedarFsError::NotFound(_))));
    assert_eq!(vol.open(NEIGHBOUR).unwrap().version, 1);
    assert_eq!(vol.create(NAME, b"again").unwrap().version, 1);
    assert_eq!(vol.read(NAME).unwrap(), b"again");
    vol.check();
}

/// A create that fails gives everything back: the free count and the
/// listing are what they were, and the volume still verifies.
fn failed_creates_leave_no_trace<V: Versioned>(vol: &mut V) {
    vol.create(NAME, b"kept").unwrap();
    vol.create(NEIGHBOUR, b"kept too").unwrap();

    // No room for the data.
    let (free, listing) = (vol.stats().free_sectors, vol.list("").unwrap());
    let too_big = vec![7u8; (free as usize + 8) * 512];
    assert!(matches!(
        vol.create("big", &too_big),
        Err(CedarFsError::NoSpace)
    ));
    assert_eq!(vol.stats().free_sectors, free, "NoSpace leaked sectors");
    assert_eq!(vol.list("").unwrap(), listing);
    vol.check();

    // No room for the name: fill the name table with empty files.
    let mut made = 0;
    let refused = loop {
        let (free, listing) = (vol.stats().free_sectors, vol.list("").unwrap());
        let name = format!("fill/{made:04}-{}", "x".repeat(48));
        match vol.create(&name, b"") {
            Ok(_) => made += 1,
            Err(e) => break (e, free, listing),
        }
        assert!(made < 2000, "the name table never filled");
    };
    let (error, free, listing) = refused;
    assert!(matches!(error, CedarFsError::NoSpace), "{error:?}");
    assert!(made > 20, "only {made} creates fitted");
    assert_eq!(vol.stats().free_sectors, free, "a full name table leaked");
    assert_eq!(vol.list("").unwrap(), listing);
    // New versions of existing names are refused the same way.
    let free = vol.stats().free_sectors;
    if vol.create(NAME, b"v2").is_err() {
        assert_eq!(vol.stats().free_sectors, free);
        assert_eq!(vol.open(NAME).unwrap().version, 1);
    }
    assert_eq!(vol.read(NEIGHBOUR).unwrap(), b"kept too");
    vol.check();
}

#[test]
fn versions_are_a_stack_fsd() {
    stack_script(&mut fsd(96));
}

#[test]
fn versions_are_a_stack_cfs() {
    stack_script(&mut cfs(64));
}

#[test]
fn explicit_versions_and_gaps_fsd() {
    gap_script(&mut fsd(96));
}

#[test]
fn explicit_versions_and_gaps_cfs() {
    gap_script(&mut cfs(64));
}

#[test]
fn failed_creates_leave_no_trace_fsd() {
    failed_creates_leave_no_trace(&mut fsd(8));
}

#[test]
fn failed_creates_leave_no_trace_cfs() {
    failed_creates_leave_no_trace(&mut cfs(8));
}

/// Keep counts prune from the old end and are inherited by the next
/// version (FSD only: CFS stores a keep and never acts on it).
#[test]
fn keep_prunes_old_versions_fsd() {
    let mut vol = fsd(96);
    vol.create(NEIGHBOUR, b"n").unwrap();
    for v in 1..=24 {
        vol.create(NAME, &body(NAME, v)).unwrap();
    }
    assert!(matches!(
        vol.set_keep("absent", 2),
        Err(cedar_fs_repro::fsd::FsdError::NotFound(_))
    ));
    vol.set_keep(NAME, 3).unwrap();
    assert_eq!(vol.versions(NAME), vec![22, 23, 24]);
    assert_eq!(vol.open(NAME, None).unwrap().entry.keep, 3);
    assert_eq!(vol.open(NAME, Some(22)).unwrap().entry.keep, 3);

    // The next version inherits the keep and pushes the oldest out.
    let f = vol.create(NAME, &body(NAME, 25)).unwrap();
    assert_eq!((f.name.version, f.entry.keep), (25, 3));
    assert_eq!(vol.versions(NAME), vec![23, 24, 25]);
    assert_eq!(FsBackend::read(&mut vol, NAME).unwrap(), body(NAME, 25));

    // Deleting the newest does not bring pruned versions back, and the
    // version after it reuses the number.
    vol.delete(NAME, None).unwrap();
    assert_eq!(vol.versions(NAME), vec![23, 24]);
    let f = vol.create(NAME, b"again").unwrap();
    assert_eq!((f.name.version, f.entry.keep), (25, 3));
    assert_eq!(vol.versions(NAME), vec![23, 24, 25]);
    assert_eq!(vol.versions(NEIGHBOUR), vec![1]);
    vol.verify().unwrap();
}
