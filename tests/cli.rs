//! End-to-end test of the `cedarfs` CLI: a volume image on the host
//! filesystem survives process boundaries, and a `--crash` invocation
//! leaves an image the next invocation recovers.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cedarfs")
}

struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("cedarfs-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        Dir(p)
    }
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn cedarfs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn put_get_ls_rm_roundtrip() {
    let dir = Dir::new("roundtrip");
    let img = dir.path("vol.img");
    let src = dir.path("src.txt");
    let dst = dir.path("dst.txt");
    std::fs::write(&src, b"bytes through the cli").unwrap();

    assert!(run(&["format", &img, "--tiny"]).0);
    assert!(run(&["put", &img, "docs/file.txt", &src]).0);
    let (ok, stdout, _) = run(&["ls", &img]);
    assert!(ok);
    // Trait-driven `ls`: "<bytes>  v<version>  <name>".
    assert!(stdout.contains("v1"), "{stdout}");
    assert!(stdout.contains("docs/file.txt"), "{stdout}");
    assert!(run(&["get", &img, "docs/file.txt", &dst]).0);
    assert_eq!(
        std::fs::read(&dst).unwrap(),
        b"bytes through the cli".to_vec()
    );
    assert!(run(&["rm", &img, "docs/file.txt"]).0);
    let (ok, stdout, _) = run(&["ls", &img]);
    assert!(ok);
    assert!(!stdout.contains("docs/file.txt"));
}

#[test]
fn crash_flag_forces_recovery_on_next_run() {
    let dir = Dir::new("crash");
    let img = dir.path("vol.img");
    let src = dir.path("src.txt");
    std::fs::write(&src, b"survives the crash").unwrap();

    assert!(run(&["format", &img, "--tiny"]).0);
    let (ok, _, stderr) = run(&["put", &img, "f", &src, "--crash"]);
    assert!(ok);
    assert!(stderr.contains("simulating a crash"), "{stderr}");
    // The next invocation must report VAM reconstruction and still see
    // the committed file.
    let (ok, stdout, stderr) = run(&["ls", &img]);
    assert!(ok);
    assert!(
        stderr.contains("reconstructed from the name table"),
        "{stderr}"
    );
    // The put's leader pass: whatever the log holds is settled from the
    // lists, written or skipped.
    assert!(stderr.contains("reallocated and skipped)"), "{stderr}");
    assert!(!stderr.contains("guarded"), "{stderr}");
    assert!(
        stdout.contains("v1") && stdout.contains("  f\n"),
        "{stdout}"
    );
}

#[test]
fn stat_reports_layout() {
    let dir = Dir::new("stat");
    let img = dir.path("vol.img");
    assert!(run(&["format", &img, "--tiny"]).0);
    let (ok, stdout, _) = run(&["stat", &img]);
    assert!(ok);
    assert!(stdout.contains("geometry:"));
    assert!(stdout.contains("name table"));
    assert!(stdout.contains("free:"));
}

#[test]
fn bad_usage_exits_nonzero() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (ok, _, _) = run(&["get", "/definitely/not/an/image", "x"]);
    assert!(!ok);
}

/// A flag the command does not take is refused with the usage, before
/// anything touches the image: `format --log-vam` used to format a plain
/// volume without a word.
#[test]
fn a_flag_the_command_does_not_take_is_refused() {
    let dir = Dir::new("flags");
    let img = dir.path("vol.img");
    let src = dir.path("src.txt");
    std::fs::write(&src, b"x").unwrap();
    for args in [
        vec!["format", &img, "--log-vam"],
        vec!["format", &img, "--crash"],
        vec!["ls", &img, "--tiny"],
    ] {
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
        assert!(!std::path::Path::new(&img).exists(), "{args:?}");
    }
    assert!(run(&["format", &img, "--tiny"]).0);
    let (ok, _, stderr) = run(&["put", &img, "f", &src, "--tiny"]);
    assert!(!ok, "{stderr}");
    let (ok, stdout, _) = run(&["ls", &img]);
    assert!(ok && !stdout.contains("  f\n"), "{stdout}");
}

/// A crashed image with a name-table leaf dead in both copies, off the
/// path of boot and of `probe`: the log does not cover it, so redo cannot
/// heal it, and only the VAM walk (or a full listing) meets it.
fn wounded_image(path: &str, probe: &str) {
    use cedar_fs_repro::disk::SimDisk;
    use cedar_fs_repro::fsd::{FsdConfig, FsdVolume, RecoveryRung};

    let config = FsdConfig::default();
    let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();
    for i in 0..120 {
        v.create(&format!("dir{}/file{i:03}", i % 4), &[i as u8; 300])
            .unwrap();
    }
    // Everything home and the log empty, then one more commit on the
    // last leaf only, and the plug pulled.
    v.shutdown().unwrap();
    let (mut v, _) = FsdVolume::boot(v.into_disk(), config).unwrap();
    v.create("zzz-last", b"invalidates the saved VAM").unwrap();
    v.force().unwrap();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();

    let layout = *FsdVolume::boot(disk.clone(), config).unwrap().0.layout();
    for page in 1..layout.nt_pages {
        let mut wounded = disk.clone();
        for s in 0..2 {
            wounded.damage_sector(layout.nt_a_sector(page) + s);
            wounded.damage_sector(layout.nt_b_sector(page) + s);
        }
        let Ok((mut v, report)) = FsdVolume::boot(wounded.clone(), config) else {
            continue;
        };
        if report.rung != RecoveryRung::Scavenge
            && v.open(probe, None).is_ok()
            && v.settle_vam().is_err()
        {
            wounded.save_image(path).unwrap();
            return;
        }
    }
    panic!("no leaf page off the probe's path");
}

/// The walk that finds a dead name-table page no longer runs inside
/// boot, and a command that returned its error would never save the
/// scavenge request it left on the boot pages: every later invocation
/// would fail the same way. Each command must instead come out with a
/// repaired image, as when boot itself escalated.
#[test]
fn a_damaged_name_table_is_scavenged_not_stranded() {
    let dir = Dir::new("wounded");
    let src = dir.path("src.txt");
    let dst = dir.path("dst.txt");
    std::fs::write(&src, b"written after the scavenge").unwrap();
    let probe = "dir0/file000";

    type Command<'a> = Vec<&'a str>;
    let img = dir.path("vol.img");
    let commands: [(&str, Command); 5] = [
        ("ls", vec!["ls", &img]),
        ("get", vec!["get", &img, probe, &dst]),
        ("put", vec!["put", &img, "new", &src]),
        ("rm", vec!["rm", &img, probe]),
        ("stat", vec!["stat", &img]),
    ];
    for (what, args) in &commands {
        wounded_image(&img, probe);
        let (ok, stdout, stderr) = run(args);
        assert!(ok, "{what}: {stderr}");
        // `get` of a file on healthy pages is served before anything
        // finds the wound; the shutdown's walk then does.
        assert!(
            stderr.contains("booting again to scavenge"),
            "{what}: {stderr}"
        );
        assert!(
            stderr.contains("rebuilt by the scavenger"),
            "{what}: {stderr}"
        );
        if *what == "ls" {
            assert!(stdout.contains("dir3/file119"), "{stdout}");
        }

        // The image that came out is an ordinary, writable volume.
        let (ok, _, stderr) = run(&["put", &img, "after", &src]);
        assert!(ok, "after {what}: {stderr}");
        assert!(
            !stderr.contains("scaveng") && !stderr.contains("VAM walk"),
            "after {what}: {stderr}"
        );
        let (ok, stdout, _) = run(&["ls", &img]);
        assert!(ok);
        assert!(stdout.contains("  after\n"), "after {what}: {stdout}");
        assert_eq!(stdout.contains(probe), *what != "rm", "after {what}");
    }
    assert_eq!(std::fs::read(&dst).unwrap(), [0u8; 300]);
}
