//! Taint fixture: one raw decode steering a layout sink (red), one raw
//! decode reaching unchecked arithmetic (red), a sanitizer-dominated
//! control flow that must stay quiet (green), and one raw decode steering
//! each address-steered I/O sink in its current argument order (red).

use crate::log::FsdLayout;

pub fn tainted_index(layout: &FsdLayout, buf: &[u8]) {
    let header = decode_header(buf);
    layout.nt_a_sector(header.page, 0);
}

pub fn tainted_arith(buf: &[u8]) {
    let meta = decode_header(buf);
    let pos = meta.offset;
    advance(pos + 5);
}

pub fn sanitized_ok(layout: &FsdLayout, buf: &[u8]) {
    let header = decode_header(buf);
    if header.page >= layout.nt_pages {
        return;
    }
    layout.nt_a_sector(header.page, 0);
}

pub fn tainted_home_batch(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8]) {
    let header = decode_header(buf);
    let mut writes = Vec::new();
    writes.push((header.addr, vec![0u8]));
    write_home_batch(disk, spare, writes);
}

pub fn tainted_scrub_batch(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8]) {
    let header = decode_header(buf);
    let mut writes = Vec::new();
    writes.push((header.addr, vec![0u8]));
    scrub_batch(disk, spare, writes);
}

pub fn tainted_pair(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8]) {
    let header = decode_header(buf);
    let pair = Replicated { a: header.addr, b: header.addr, sectors: 1 };
    read_replicated(disk, spare, pair, None, valid);
}

pub fn tainted_batch(disk: &mut SimDisk, buf: &[u8]) {
    let header = decode_header(buf);
    let mut batch = IoBatch::new();
    batch.push(header.op);
    sched::execute(disk, &batch);
}

pub fn tainted_partial_batch(disk: &mut SimDisk, buf: &[u8]) {
    let header = decode_header(buf);
    let mut batch = IoBatch::new();
    batch.push(header.op);
    sched::execute_partial(disk, &batch);
}
