//! A warm machine reallocates without touching the heap allocator.
//!
//! Every monotask start or end re-prices its machine's resources, so the
//! reallocation kernel runs hundreds of thousands of times per simulated job.
//! This test counts allocations made by the test thread across 1 000
//! reallocations of a 48-stream machine and requires none.
//!
//! Not built with `slowcheck`: that feature re-derives every reallocation
//! with the quadratic reference algorithm, which allocates by design.

#![cfg(not(feature = "slowcheck"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use cluster::{DiskId, FluidMachine, MachineSpec, StreamDemand, StreamId};
use simcore::SimTime;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Counting is per thread, so the test harness's own threads never
    /// contribute.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// flag and an atomic, never the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MIB: f64 = 1024.0 * 1024.0;

#[test]
fn warm_reallocation_allocates_nothing() {
    let spec = MachineSpec::m2_4xlarge();
    let nd = spec.disks.len();
    let mut m = FluidMachine::new(spec);
    // Monotask-shaped single-resource streams plus a few pipelined ones,
    // each large enough to outlive the run.
    for i in 0..48u64 {
        let disk = DiskId(i as usize % nd);
        let size = (500.0 + i as f64) * MIB;
        let d = match i % 4 {
            0 => StreamDemand::rx_only(size, nd),
            1 => StreamDemand::cpu_only(100.0 + i as f64, nd),
            2 => StreamDemand::disk_read_only(disk, size, nd),
            _ => {
                let mut d = StreamDemand::disk_write_only(disk, size, nd);
                d.cpu = 5.0;
                d
            }
        };
        m.insert(SimTime::ZERO, StreamId(i), d);
    }
    let factors = [0.5, 1.0];
    let mut now = SimTime::ZERO;
    let mut step = |m: &mut FluidMachine, k: u64| {
        now = SimTime::from_secs_f64(k as f64 * 1e-3);
        m.set_disk_scale(now, (k % nd as u64) as usize, factors[(k % 2) as usize]);
    };
    // Warm-up: the machine's scratch buffers reach their steady-state
    // capacity.
    for k in 1..=500 {
        step(&mut m, k);
    }
    let before = m.stats().reallocs;
    COUNTING.with(|c| c.set(true));
    for k in 501..=1500 {
        step(&mut m, k);
    }
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(m.stats().reallocs - before, 1000);
    assert_eq!(m.active_streams(), 48, "a stream completed mid-run");
    assert_eq!(allocations, 0, "allocations across 1000 reallocations");
}
