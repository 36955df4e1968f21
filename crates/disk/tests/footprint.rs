//! What the chunk store costs in heap: a blank T-300 holds well under a
//! megabyte, a clone allocates no sector bytes however much is written,
//! and the first write to a chunk a clone shares allocates that one
//! chunk and nothing else.
//!
//! A counting global allocator keeps per-thread tallies, so tests
//! running side by side do not see each other's allocations.

use cedar_disk::disk::CHUNK_SECTORS;
use cedar_disk::{SimClock, SimDisk, SECTOR_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Bytes allocated, and allocations made.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize, freed: bool) {
    // `try_with`: the tallies of a thread being torn down are gone.
    let delta = if freed {
        -(bytes as isize)
    } else {
        bytes as isize
    };
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    if !freed {
        let _ = ALLOCATED.try_with(|a| {
            let (b, n) = a.get();
            a.set((b + bytes, n + 1));
        });
    }
}

// SAFETY: every method forwards to `System` with the pointer and layout
// its caller passed, so `System`'s guarantees are the caller's; the
// tallies are thread-local cells and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        // SAFETY: the caller's contract for this call is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        // SAFETY: the caller's contract for this call is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), true);
        // SAFETY: the caller's contract for this call is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), true);
        note(new_size, false);
        // SAFETY: the caller's contract for this call is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`; returns its value, the heap it left live, and the bytes and
/// allocations it made.
fn measure<T>(f: impl FnOnce() -> T) -> (T, isize, usize, usize) {
    let (live, (bytes, count)) = (LIVE.get(), ALLOCATED.get());
    let value = f();
    let (b, n) = ALLOCATED.get();
    (value, LIVE.get() - live, b - bytes, n - count)
}

const CHUNK_BYTES: usize = CHUNK_SECTORS * SECTOR_BYTES;

/// A T-300 with one sector written in each of `k` chunks spread over
/// the platter.
fn written(k: usize) -> SimDisk {
    let mut d = SimDisk::trident_t300(SimClock::new());
    let chunks = d.geometry().total_sectors() as usize / CHUNK_SECTORS;
    for i in 0..k {
        let addr = (i * chunks / k * CHUNK_SECTORS) as u32;
        d.write(addr, &[i as u8 | 1; SECTOR_BYTES]).unwrap();
    }
    d
}

#[test]
fn a_blank_t300_holds_under_a_megabyte() {
    let (disk, live, _, _) = measure(|| SimDisk::trident_t300(SimClock::new()));
    assert!(live < 1 << 20, "a blank T-300 holds {live} bytes of heap");
    drop(disk);
}

#[test]
fn a_clone_allocates_no_sector_bytes() {
    let (blank, full) = (written(0), written(400));
    assert_eq!(full.materialized_sectors(), 400);
    let (_, _, blank_bytes, _) = measure(|| blank.clone());
    let (_, _, full_bytes, _) = measure(|| full.clone());
    // Four hundred chunks are 12.5 MiB; the clone allocates what a
    // blank disk's does: the chunk table and the bitmap.
    assert_eq!(full_bytes, blank_bytes);
    assert!(full_bytes < 400 * CHUNK_BYTES / 20, "{full_bytes} bytes");
}

#[test]
fn the_first_write_to_a_shared_chunk_allocates_one_chunk() {
    let mut d = written(8);
    let before = d.clone();
    let sector = vec![0xC3; SECTOR_BYTES];
    let (r, _, bytes, count) = measure(|| d.write(5, &sector));
    r.unwrap();
    assert_eq!(count, 1, "one allocation, {bytes} bytes");
    assert!(
        (CHUNK_BYTES..CHUNK_BYTES + 64).contains(&bytes),
        "{bytes} bytes for a chunk of {CHUNK_BYTES}"
    );
    // The copy is the writer's own now: the next write allocates nothing.
    let (r, _, bytes, count) = measure(|| d.write(6, &sector));
    r.unwrap();
    assert_eq!((count, bytes), (0, 0));
    // The clone kept the chunk as it was.
    assert_eq!(before.peek_data(5), None);
    assert_eq!(before.peek_data(0), Some(&[1; SECTOR_BYTES][..]));
    assert_eq!(d.peek_data(5), Some(&sector[..]));
}
