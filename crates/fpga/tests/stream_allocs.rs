//! Deterministic allocation counts of streamed passes.
//!
//! The window stages reuse the unit their window evicts as the storage of
//! their next output unit, and each pass hands its output units to the
//! next by value, so a run allocates its input units once, a few units per
//! stage while each window fills and drains, and the reassembled state
//! once — not one unit per stage per streamed unit, nor a state per pass.
//! A counting global allocator pins that on every engine. This file holds
//! a single test so that no other test allocates while it counts.

use sf_fpga::fast::ExecEngine;
use sf_fpga::window::{run_passes, Engine2D, Engine3D, ScalarEngine, Stamps};
use sf_fpga::Recorder;
use sf_kernels::{Jacobi3D, Poisson2D};
use sf_mesh::{norms, Mesh2D, Mesh3D};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Counts every allocation (and reallocation) and the bytes it asks for,
/// then delegates to the system allocator.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
}

// SAFETY: every method passes its arguments to `System` unchanged, so the
// caller's guarantees about `layout` and `ptr` hold for `System` too; the
// counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` comes unchanged from the caller.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` comes unchanged from the caller.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this type), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A pass's final state, with the allocations and bytes it made.
struct Counted {
    state: Vec<f32>,
    allocs: usize,
    bytes: usize,
}

fn counted(f: impl FnOnce() -> Vec<f32>) -> Counted {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let state = f();
    Counted { state, allocs: ALLOCS.load(Relaxed) - a0, bytes: BYTES.load(Relaxed) - b0 }
}

/// Counted passes of `mesh` through Jacobi stages of `engine`, `passes[i]`
/// stages in pass `i`.
fn jacobi_passes<E: Engine3D<f32, Jacobi3D>>(
    engine: E,
    mesh: &Mesh3D<f32>,
    passes: &[usize],
) -> Counted {
    let (nx, ny, nz) = (mesh.nx(), mesh.ny(), mesh.nz());
    let make = |k: &Jacobi3D| engine.stage(k, nx, ny, nz, nz);
    let (rec, at) = (&mut Recorder::disabled(), Stamps::default());
    let ks = [Jacobi3D::smoothing()];
    counted(|| run_passes(mesh.as_slice(), nx * ny, passes, &ks, make, rec, at, None))
}

/// One counted pass of `mesh` through `stages` Poisson stages of `engine`.
fn poisson_pass<E: Engine2D<f32, Poisson2D>>(
    engine: E,
    mesh: &Mesh2D<f32>,
    stages: usize,
) -> Counted {
    let (nx, ny) = (mesh.nx(), mesh.ny());
    let make = |k: &Poisson2D| engine.stage(k, nx, ny, ny);
    let (rec, at) = (&mut Recorder::disabled(), Stamps::default());
    counted(|| run_passes(mesh.as_slice(), nx, &[stages], &[Poisson2D], make, rec, at, None))
}

/// Check each engine's run against the steady-state bounds — one
/// allocation per input unit plus a few per stage; in bytes the input
/// copy, the output state and a few units per stage, however many passes
/// the stages are split into — and that all engines agree.
fn check(what: &str, runs: [(&str, Counted); 3], unit_len: usize, stages: usize) {
    let state_bytes = std::mem::size_of_val(runs[0].1.state.as_slice());
    let unit_bytes = unit_len * std::mem::size_of::<f32>();
    let units = state_bytes / unit_bytes;
    let max_allocs = units + 8 * stages + 64;
    let max_bytes = 2 * state_bytes + 4 * stages * unit_bytes + 64 * 1024;
    for (engine, run) in &runs {
        let Counted { allocs, bytes, .. } = run;
        println!("{what} on {engine}: {allocs} allocations, {bytes} bytes");
        assert!(*allocs <= max_allocs, "{what} on {engine}: {allocs} allocations > {max_allocs}");
        assert!(*bytes <= max_bytes, "{what} on {engine}: {bytes} bytes allocated > {max_bytes}");
        assert!(
            norms::bit_equal(&run.state, &runs[0].1.state),
            "{what}: {engine} differs from fast"
        );
    }
}

#[test]
fn one_pass_allocates_per_unit_not_per_stage_and_unit() {
    let m = Mesh3D::<f32>::random(64, 64, 64, 7, -1.0, 1.0);
    let runs = [
        ("fast", jacobi_passes(ExecEngine::Fast, &m, &[24])),
        ("scalar", jacobi_passes(ExecEngine::Scalar, &m, &[24])),
        ("ScalarEngine", jacobi_passes(ScalarEngine, &m, &[24])),
    ];
    check("jacobi 64³ x24 stages", runs, 64 * 64, 24);

    // Later passes take the previous pass's units by value: the state is
    // copied in once and joined once, not once per pass.
    let runs = [
        ("fast", jacobi_passes(ExecEngine::Fast, &m, &[6; 4])),
        ("scalar", jacobi_passes(ExecEngine::Scalar, &m, &[6; 4])),
        ("ScalarEngine", jacobi_passes(ScalarEngine, &m, &[6; 4])),
    ];
    check("jacobi 64³ 4 passes x6 stages", runs, 64 * 64, 24);

    let m = Mesh2D::<f32>::random(256, 256, 11, -1.0, 1.0);
    let runs = [
        ("fast", poisson_pass(ExecEngine::Fast, &m, 16)),
        ("scalar", poisson_pass(ExecEngine::Scalar, &m, 16)),
        ("ScalarEngine", poisson_pass(ScalarEngine, &m, 16)),
    ];
    check("poisson 256² x16 stages", runs, 256, 16);
}
