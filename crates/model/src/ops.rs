//! Operation scripts for CFS and FSD.
//!
//! Each script mirrors the I/O and CPU sequence the corresponding
//! simulated volume performs in the steady state of the paper's
//! benchmarks (warm name-table cache, sequential allocation within one
//! directory) — "Based on the code or documentation, analyze the
//! algorithm to find out where it will do I/O's. If an I/O will be on the
//! same (or nearby) cylinder or if the rotational position of the disk is
//! known, then take this rotational and radial position into account"
//! (§6).

use crate::script::{Script, Step};
use cedar_disk::clock::Micros;
use cedar_disk::{CpuModel, DiskTiming};

/// Everything a script needs to evaluate.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Drive timing.
    pub timing: DiskTiming,
    /// CPU cost table.
    pub cpu: CpuModel,
    /// Cylinders on the volume (for average seeks).
    pub cylinders: u32,
    /// Sectors per cylinder (for track-to-track crossings in long
    /// transfers).
    pub sectors_per_cylinder: u32,
}

impl ModelParams {
    /// The paper's hardware: Trident T-300 class drive, Dorado CPU.
    pub fn dorado_t300() -> Self {
        Self {
            timing: DiskTiming::TRIDENT_T300,
            cpu: CpuModel::DORADO,
            cylinders: 815,
            sectors_per_cylinder: 19 * 38,
        }
    }
}

/// A named prediction.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Operation name (matches the Table 2 row).
    pub name: String,
    /// The script behind the number.
    pub script: Script,
    /// Predicted time.
    pub total_us: Micros,
}

fn predict(params: &ModelParams, script: Script) -> Prediction {
    let total_us = script.total_us(&params.timing, params.cylinders);
    Prediction {
        name: script.name.clone(),
        script,
        total_us,
    }
}

/// CPU for walking `n` B-tree nodes.
fn nodes(cpu: &CpuModel, n: u64) -> Step {
    Step::Cpu(cpu.btree_node_us * n)
}

/// Sectors in a 4 KB request, the stream buffer of the era.
const REQUEST_SECTORS: u32 = 8;

/// Track-to-track crossings in a transfer of `sectors` sectors.
fn crossings(params: &ModelParams, sectors: u32) -> u32 {
    sectors / params.sectors_per_cylinder
}

/// The steady-state cost of resolving a name: one walk (root + leaf,
/// cached) routed by the end of the name's key range ends at the newest
/// version, and the entry is there to decode.
fn name_lookup_cpu(cpu: &CpuModel) -> Vec<(String, Step)> {
    vec![
        ("newest version (2 cached nodes)".into(), nodes(cpu, 2)),
        ("entry decode".into(), Step::Cpu(cpu.entry_us)),
    ]
}

// ----- FSD ---------------------------------------------------------------------

/// An FSD delete: one walk routed by the end of the name's key range
/// (root + leaf, cached) ends at the newest version and takes it out of
/// the leaf, which is written back to the cache.
fn fsd_delete(name: &str, cpu: &CpuModel) -> Script {
    Script::new(name)
        .step("dispatch", Step::Cpu(cpu.op_overhead_us))
        .step(
            "newest version removed (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("entry decode", Step::Cpu(cpu.entry_us))
}

/// Scripts for the FSD operations of Table 2.
pub fn fsd_ops(params: &ModelParams) -> Vec<Prediction> {
    let cpu = &params.cpu;
    let mut out = Vec::new();

    // Small create: metadata entirely in cache; one synchronous write of
    // leader + data page, rotationally unconstrained (average latency),
    // radially adjacent to the previous allocation (no seek).
    let mut s = Script::new("FSD small create")
        .step("dispatch", Step::Cpu(cpu.op_overhead_us))
        .step(
            "next version: walk and insert (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("entry encode", Step::Cpu(cpu.entry_us))
        .step("copy 2 sectors", Step::Cpu(cpu.per_sector_us * 2));
    let create_cpu =
        cpu.op_overhead_us + 3 * cpu.btree_node_us + cpu.entry_us + cpu.per_sector_us * 2;
    s = s
        .step(
            "write leader+data: rotational join (adjacent to previous create)",
            Step::RotationalJoin {
                cpu_us: create_cpu,
                offset: 0,
            },
        )
        .step("write leader+data: transfer", Step::Transfer(2));
    out.push(predict(params, s));

    // Open: no I/O at all (§5.7).
    let mut s = Script::new("FSD open").step("dispatch", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    out.push(predict(params, s));

    // Open + read first page: the open plus one piggybacked
    // leader-and-data transfer (§5.7: "it usually costs only the transfer
    // time for a page to read the leader page").
    let mut s = Script::new("FSD open + read").step("dispatch", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    s = s
        .step("copy sector", Step::Cpu(cpu.per_sector_us))
        .step("seek to file", Step::ShortSeek)
        .step("latency", Step::Latency)
        .step("leader + page transfer", Step::Transfer(2));
    out.push(predict(params, s));

    // Small delete: cache-only (§4: delete does no synchronous I/O). The
    // walk that finds the newest version removes it: the lookup's nodes,
    // the leaf written, the entry decoded for the pages it frees.
    out.push(predict(params, fsd_delete("FSD small delete", cpu)));

    // Large delete (1 MB): same metadata work; the run table is longer
    // but the pages just move to the shadow bitmap.
    out.push(predict(params, fsd_delete("FSD large delete", cpu)));

    // Read page (random page of an open 1 MB file, leader verified):
    // the file occupies a few cylinders, so the cost is rotational —
    // identical in both systems ("the disk hardware is the same", §7).
    let s = Script::new("FSD read page")
        .step("copy sector", Step::Cpu(cpu.per_sector_us))
        .step("latency", Step::Latency)
        .step("transfer", Step::Transfer(1));
    out.push(predict(params, s));

    // Large create (1 MB = 2048 data sectors): one long seek to the big
    // area, then a continuous leader+data transfer with track-to-track
    // crossings.
    let sectors = 2049u32;
    let mut s = Script::new("FSD large create")
        .step("dispatch", Step::Cpu(cpu.op_overhead_us))
        .step(
            "next version: walk and insert (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("entry encode", Step::Cpu(cpu.entry_us))
        .step(
            "copy 2049 sectors",
            Step::Cpu(cpu.per_sector_us * sectors as Micros),
        )
        .step("seek to big area", Step::AvgSeek)
        .step("latency", Step::Latency)
        .step("transfer", Step::Transfer(sectors));
    for _ in 0..crossings(params, sectors) {
        s = s.step("track-to-track", Step::ShortSeek);
    }
    out.push(predict(params, s));

    // Whole-file read of 1 MB, one request per run: the file is one run
    // a few cylinders long, so the head is a short seek from its leader;
    // then leader + data stream past in one transfer and the copy is
    // charged once.
    let data = 2048u32;
    let mut s = Script::new("FSD 1 MB read, one request per run")
        .step("dispatch", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    s = s
        .step("seek to file", Step::ShortSeek)
        .step("latency", Step::Latency)
        .step("leader + data transfer", Step::Transfer(1 + data));
    for _ in 0..crossings(params, 1 + data) {
        s = s.step("track-to-track", Step::ShortSeek);
    }
    s = s.step(
        "copy 2048 sectors",
        Step::Cpu(cpu.per_sector_us * data as Micros),
    );
    out.push(predict(params, s));

    // The same file through an open handle in 4 KB requests. Each
    // request's copy carries the next sector past the head, so every
    // request but the first waits the platter round: 8 sectors of
    // transfer buy a revolution. (A cylinder crossing hides inside a
    // revolution already lost.)
    let requests = (data / REQUEST_SECTORS) as usize;
    let request_cpu = cpu.per_sector_us * REQUEST_SECTORS as Micros;
    let s = Script::new("FSD 1 MB read, 4 KB requests")
        .step("seek to file", Step::ShortSeek)
        .step("latency", Step::Latency)
        .step("leader, with the first request", Step::Transfer(1))
        .steps("request", &vec![Step::Transfer(REQUEST_SECTORS); requests])
        .steps("copy 8 sectors", &vec![Step::Cpu(request_cpu); requests])
        .steps(
            "next request: its first sector has just gone by",
            &vec![
                Step::RotationalJoin {
                    cpu_us: request_cpu,
                    offset: 0,
                };
                requests - 1
            ],
        );
    out.push(predict(params, s));

    // The force behind a small create: the name-table sector it changed
    // and the new leader.
    out.push(fsd_log_force(params, 2));

    out
}

/// One log force of `n` sector images — §5.3's "single disk write to the
/// log". The images are copied into the record; the head goes from the
/// small-file area at the front of the volume to the log on the central
/// cylinders and waits half a revolution for the header; then the
/// record's `2n + 5` sectors go by in platter order. Nothing waits for
/// the end page: it is the sector after `Dₙ`.
pub fn fsd_log_force(params: &ModelParams, n: u32) -> Prediction {
    let s = Script::new(&format!("FSD log force, {n} images"))
        .step(
            &format!("copy {n} sectors"),
            Step::Cpu(params.cpu.per_sector_us * n as Micros),
        )
        .step(
            "seek: small-file area to the central log",
            Step::Seek(params.cylinders / 2),
        )
        .step("latency", Step::Latency)
        .step("record: 2n + 5 transfers", Step::Transfer(2 * n + 5));
    predict(params, s)
}

// ----- CFS ---------------------------------------------------------------------

/// Scripts for the CFS operations of Table 2, including the §6 worked
/// example for the small create.
pub fn cfs_ops(params: &ModelParams) -> Vec<Prediction> {
    let cpu = &params.cpu;
    let mut out = Vec::new();

    // Small create — the paper's own script, extended to the full
    // operation. Allocation is adjacent to the previous create (same
    // cylinder), so step 1 pays latency but no seek.
    let s = Script::new("CFS small create")
        .step("dispatch", Step::Cpu(cpu.op_overhead_us))
        .step("newest version (2 cached nodes)", nodes(cpu, 2))
        .step("verify free pages: latency", Step::Latency)
        .step("verify free pages: 3 page transfers", Step::Transfer(3))
        .step("write header labels", Step::RevolutionMinus(3))
        .step("write header labels: 2 transfers", Step::Transfer(2))
        .step("write data label: 1 transfer", Step::Transfer(1))
        .step("write header", Step::RevolutionMinus(3))
        .step("write header: 2 transfers", Step::Transfer(2))
        .step("header encode", Step::Cpu(cpu.entry_us))
        .step(
            "name table insert (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("name table: seek to front region", Step::ShortSeek)
        .step("name table: latency", Step::Latency)
        .step("name table: page write (4 sectors)", Step::Transfer(4))
        .step("write data: seek back", Step::ShortSeek)
        .step("write data: latency", Step::Latency)
        .step("write data: 1 transfer", Step::Transfer(1))
        .step("copy sector", Step::Cpu(cpu.per_sector_us))
        .step("rewrite header", Step::RevolutionMinus(3))
        .step("rewrite header: 2 transfers", Step::Transfer(2));
    out.push(predict(params, s));

    // Open: cached name lookup plus a label-checked header read. In the
    // same-directory steady state the headers share the head's cylinder
    // ("incorporate any known locality" — §6): latency only, no seek.
    let mut s = Script::new("CFS open").step("dispatch", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    let open_cpu = cpu.op_overhead_us + 2 * cpu.btree_node_us + 2 * cpu.entry_us;
    s = s
        .step("header decode", Step::Cpu(cpu.entry_us))
        .step(
            "read header: rotational join (next file's header, +3 sectors)",
            Step::RotationalJoin {
                cpu_us: open_cpu,
                offset: 3,
            },
        )
        .step("read header: 2 transfers", Step::Transfer(2));
    out.push(predict(params, s));

    // Open + read first page: the header read positions the head on the
    // file's cylinder; the data page follows the header on the disk, but
    // a revolution boundary usually intervenes.
    let mut s = Script::new("CFS open + read").step("dispatch", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    s = s
        .step("header decode", Step::Cpu(cpu.entry_us))
        .step("read header: latency", Step::Latency)
        .step("read header: 2 transfers", Step::Transfer(2))
        .step("read data: rotational wait", Step::RevolutionMinus(3))
        .step("read data: 1 transfer", Step::Transfer(1))
        .step("copy sector", Step::Cpu(cpu.per_sector_us));
    out.push(predict(params, s));

    // Small delete: open, free the labels, update the name table.
    let mut s = Script::new("CFS small delete")
        .step("dispatch (delete)", Step::Cpu(cpu.op_overhead_us))
        .step("dispatch (inner open)", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    s = s
        .step("header decode", Step::Cpu(cpu.entry_us))
        .step("read header: latency", Step::Latency)
        .step("read header: 2 transfers", Step::Transfer(2))
        .step("free header labels", Step::RevolutionMinus(2))
        .step("free header labels: 2 transfers", Step::Transfer(2))
        .step("free data label: 1 transfer", Step::Transfer(1))
        .step(
            "name table delete (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("name table: seek", Step::ShortSeek)
        .step("name table: latency", Step::Latency)
        .step("name table: page write", Step::Transfer(4));
    out.push(predict(params, s));

    // Large delete (1 MB): additionally frees 2048 data labels in one
    // label-write pass over the data runs.
    let sectors = 2048u32;
    let mut s = Script::new("CFS large delete")
        .step("dispatch (delete)", Step::Cpu(cpu.op_overhead_us))
        .step("dispatch (inner open)", Step::Cpu(cpu.op_overhead_us));
    for (what, step) in name_lookup_cpu(cpu) {
        s = s.step(&what, step);
    }
    s = s
        .step("header decode", Step::Cpu(cpu.entry_us))
        .step("read header: seek", Step::AvgSeek)
        .step("read header: latency", Step::Latency)
        .step("read header: 2 transfers", Step::Transfer(2))
        .step("free header labels", Step::RevolutionMinus(2))
        .step("free header labels: 2 transfers", Step::Transfer(2))
        .step("free data labels: transfers", Step::Transfer(sectors));
    for _ in 0..crossings(params, sectors) {
        s = s.step("track-to-track", Step::ShortSeek);
    }
    s = s
        .step(
            "name table delete (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("name table: seek", Step::AvgSeek)
        .step("name table: latency", Step::Latency)
        .step("name table: page write", Step::Transfer(4));
    out.push(predict(params, s));

    // Read page: identical hardware, identical script (§7).
    let s = Script::new("CFS read page")
        .step("copy sector", Step::Cpu(cpu.per_sector_us))
        .step("latency", Step::Latency)
        .step("transfer", Step::Transfer(1));
    out.push(predict(params, s));

    // Large create (1 MB): verify pass, label pass, header writes, name
    // table, data pass, header rewrite — three full passes over the data.
    let sectors = 2050u32;
    let data = 2048u32;
    let mut s = Script::new("CFS large create")
        .step("dispatch", Step::Cpu(cpu.op_overhead_us))
        .step("newest version (2 cached nodes)", nodes(cpu, 2))
        .step("verify free: seek", Step::AvgSeek)
        .step("verify free: latency", Step::Latency)
        .step("verify free: transfers", Step::Transfer(sectors))
        .step("write header labels", Step::Latency)
        .step("write header labels: 2 transfers", Step::Transfer(2))
        .step("write data labels: transfers", Step::Transfer(data))
        .step("write header", Step::Latency)
        .step("write header: 2 transfers", Step::Transfer(2))
        .step("header encode", Step::Cpu(cpu.entry_us))
        .step(
            "name table insert (2 cached nodes, 1 written)",
            nodes(cpu, 3),
        )
        .step("name table: seek", Step::AvgSeek)
        .step("name table: latency", Step::Latency)
        .step("name table: page write", Step::Transfer(4))
        .step("write data: seek", Step::AvgSeek)
        .step("write data: latency", Step::Latency)
        .step("write data: transfers", Step::Transfer(data))
        .step(
            "copy sectors",
            Step::Cpu(cpu.per_sector_us * data as Micros),
        )
        .step("rewrite header", Step::Latency)
        .step("rewrite header: 2 transfers", Step::Transfer(2));
    for _ in 0..3 * crossings(params, data) {
        s = s.step("track-to-track", Step::ShortSeek);
    }
    out.push(predict(params, s));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::dorado_t300()
    }

    #[test]
    fn fsd_beats_cfs_on_every_metadata_op() {
        let p = params();
        let fsd = fsd_ops(&p);
        let cfs = cfs_ops(&p);
        for (f, c) in fsd.iter().zip(cfs.iter()) {
            if f.name.contains("read page") {
                // Identical hardware: identical cost (Table 2).
                assert_eq!(f.total_us, c.total_us, "{}", f.name);
            } else {
                assert!(
                    f.total_us < c.total_us,
                    "{} ({} µs) should beat {} ({} µs)",
                    f.name,
                    f.total_us,
                    c.name,
                    c.total_us
                );
            }
        }
    }

    #[test]
    fn speedup_shapes_match_table_2() {
        // The paper's speed-ups: small create 3.77, open 4.38, small
        // delete 14.5, large create 2.81. Our absolute constants differ,
        // but the ordering and rough magnitudes must hold.
        let p = params();
        let fsd = fsd_ops(&p);
        let cfs = cfs_ops(&p);
        let ratio = |name: &str| {
            let f = fsd.iter().find(|x| x.name.contains(name)).unwrap();
            let c = cfs.iter().find(|x| x.name.contains(name)).unwrap();
            c.total_us as f64 / f.total_us as f64
        };
        let create = ratio("small create");
        let open = ratio("open");
        let delete = ratio("small delete");
        let large = ratio("large create");
        assert!(create > 2.0, "small create speedup {create:.2}");
        assert!(open > 1.5, "open speedup {open:.2}");
        assert!(delete > 2.0, "small delete speedup {delete:.2}");
        assert!(
            (1.5..6.0).contains(&large),
            "large create speedup {large:.2}"
        );
        // The paper's delete speedup (14.5×) towers over the others
        // because the Dorado's CFS delete was nearly all disk time; with
        // our faster simulated CPU constants the delete and create
        // speedups land in the same band — the deviation is recorded in
        // EXPERIMENTS.md. The invariant that survives any constant
        // choice: FSD's delete does no disk I/O at all.
        let _ = delete;
    }

    #[test]
    fn fsd_open_and_delete_are_pure_cpu() {
        let p = params();
        for pred in fsd_ops(&p) {
            if pred.name.contains("open") && !pred.name.contains("read") {
                assert_eq!(pred.script.disk_us(&p.timing, p.cylinders), 0);
            }
            if pred.name.contains("delete") {
                assert_eq!(pred.script.disk_us(&p.timing, p.cylinders), 0);
            }
        }
    }

    #[test]
    fn a_4kb_request_buys_a_revolution() {
        // The before-figure of E-STREAM from first principles: a 1 MB
        // file in 4 KB requests is 256 × (8 sectors + one revolution, the
        // copy inside it), five times the one-request-per-run read.
        let p = params();
        let ops = fsd_ops(&p);
        let by = |name: &str| {
            ops.iter()
                .find(|x| x.name.ends_with(name))
                .unwrap()
                .total_us
        };
        let per_request = by("4 KB requests") / 256;
        let want = 8 * p.timing.sector_us() + p.timing.revolution_us();
        assert!(per_request.abs_diff(want) < want / 100, "{per_request} µs");
        assert!(by("4 KB requests") > 4 * by("one request per run"));
    }

    #[test]
    fn renders_are_presentable() {
        let p = params();
        for pred in cfs_ops(&p) {
            let text = pred.script.render(&p.timing, p.cylinders);
            assert!(text.contains("total"));
        }
    }
}
