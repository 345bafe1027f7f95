//! Vectorized fast-path execution: lane-parallel stage processors that
//! advance [`LANES`] adjacent cells per step through the same window-buffer
//! chain the scalar executors stream.
//!
//! # Bit-exactness by construction
//!
//! The fast processors do **not** reimplement any kernel. A kernel's update
//! is written once, generically over `sf_kernels::AbstractValue`; the SIMD
//! pack type [`sf_simd::F32xL`] implements that trait elementwise, so
//! instantiating the same generic update at the pack type replays the
//! identical per-cell floating-point operation sequence — no reassociation,
//! no FMA contraction, just `LANES` independent IEEE streams evaluated side
//! by side (see [`sf_kernels::lanes`]). The kernel reads its neighbourhood
//! one component at a time through `LaneElement::gather_lane`, so a
//! many-component cell loads only the components the update uses rather
//! than transposing whole cells. Boundary cells go through the kernel's
//! `on_boundary`; a row interior at least [`LANES`] wide goes entirely in
//! packs, the last pack moved back to end at the interior's edge so it
//! overlaps its predecessor (a lane computes only its own cell, so a cell
//! written twice gets the same bits both times), and only an interior
//! narrower than one pack goes through the scalar `apply`. The result is
//! bit-identical to the scalar executors (and hence to the golden
//! reference) for every mesh shape, batch size and stencil.
//!
//! # What is shared, what is swapped
//!
//! The engine traits of [`crate::window`] confine the fast path to one
//! swap point: the per-stage processor. [`ExecEngine`] is the engine every
//! executor takes as a value; `ExecEngine::Fast` builds the lane-parallel
//! processors below and `ExecEngine::Scalar` the cell-at-a-time ones, one
//! [`ExecStage`] per kernel of the chain. Streaming schedule, telemetry
//! hooks (which fire per row/plane, never per cell), drain logic, cycle
//! accounting, fault injection points, watchdog observation and recovery
//! checkpointing are the *same code* for both engines — the one chain
//! runner [`crate::window::run_chain`] —, so traces,
//! [`crate::report::SimReport`]s and fault campaigns are byte-identical
//! across `--exec scalar|fast`. This module re-exports the ten
//! engine-generic `*_exec` entry points; kernels without a lane impl run
//! through them on [`ScalarEngine`](crate::window::ScalarEngine).
//!
//! Iteration is row-blocked: each emitted row (2D) or row-of-plane (3D) is
//! written in place, left boundary → lane packs → right boundary, into the
//! unit the window just evicted (see [`crate::window`]), touching each
//! cache line once per stencil row. The radius comes from the kernel's
//! `radius()` at every use rather than from a cached field, so for the
//! paper's kernels it is a constant and every window index and neighbour
//! offset folds; a neighbour read is a per-row base plus an `isize` offset
//! with one range check per load.

pub use crate::exec2d::simulate_2d_exec;
pub use crate::exec3d::simulate_3d_exec;
pub use crate::exec_batch::{simulate_batch_2d_parallel_exec, simulate_batch_3d_parallel_exec};
pub use crate::recovery::{
    simulate_2d_recoverable_exec, simulate_3d_recoverable_exec, simulate_batch_2d_recoverable_exec,
    simulate_batch_3d_recoverable_exec,
};
pub use crate::resilient::{simulate_2d_resilient_exec, simulate_3d_resilient_exec};
use crate::window::{
    write_boundary, Engine2D, Engine3D, RingBuffer, Stage, StageProcessor2D, StageProcessor3D,
};
use serde::{Deserialize, Serialize};
use sf_kernels::{LaneElement, LaneOp2D, LaneOp3D};
use sf_mesh::Element;
use sf_simd::LANES;

/// One lane-parallel pipeline stage streaming rows of a (possibly batched)
/// 2D mesh — the fast-path counterpart of
/// [`crate::window::StageProcessor2D`], emitting cell-for-cell bit-equal
/// rows.
pub struct FastStageProcessor2D<T: LaneElement, K: LaneOp2D<T>> {
    k: K,
    nx: usize,
    stream_rows: usize,
    /// Rows per independent mesh in the stream (seam period).
    mesh_ny: usize,
    ring: RingBuffer<T>,
    next_out: usize,
}

impl<T: LaneElement, K: LaneOp2D<T>> FastStageProcessor2D<T, K> {
    /// Create a processor for a stream of `stream_rows` rows of `nx` cells,
    /// where every `mesh_ny` rows form an independent mesh.
    pub fn new(k: K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self {
        assert!(stream_rows.is_multiple_of(mesh_ny), "stream must be whole meshes");
        let r = k.radius();
        FastStageProcessor2D {
            k,
            nx,
            stream_rows,
            mesh_ny,
            ring: RingBuffer::new(2 * r + 1),
            next_out: 0,
        }
    }

    /// Compute output row `y` in place into `reuse` (a row the window
    /// evicted) or, while the window fills and during the drain, into a
    /// fresh row. Every cell is written, since a reused row holds a stale
    /// unit.
    fn emit(&mut self, y: usize, reuse: Option<Vec<T>>) -> Vec<T> {
        let (nx, k) = (self.nx, &self.k);
        let r = k.radius();
        let mut out = reuse.unwrap_or_else(|| vec![T::default(); nx]);
        let ly = y % self.mesh_ny;
        if ly >= r && ly + r < self.mesh_ny {
            // Interior ly ≥ r implies y ≥ r, so the window rows y−r..=y+r
            // are all resident; borrow them once for the whole row.
            let rows = self.ring.window(y - r, 2 * r + 1);
            let row = move |dy: i32| &rows[r.wrapping_add_signed(dy as isize)][..];
            let idx = move |x: usize, dx: i32| x.wrapping_add_signed(dx as isize);
            write_row(
                &mut out,
                &rows[r],
                r,
                |c| k.on_boundary(c),
                |x| k.apply_lanes(&move |dx, dy, c| T::gather_lane(row(dy), idx(x, dx), c)),
                |x| k.apply(move |dx, dy| row(dy)[idx(x, dx)]),
            );
        } else {
            // Boundary row of its mesh: every cell is a boundary cell.
            write_boundary(&mut out, self.ring.get(y), |c| k.on_boundary(c));
        }
        self.next_out = y + 1;
        out
    }

    /// Feed the next input row; returns the output row that became ready
    /// (none while the window is filling).
    pub fn push_row(&mut self, row: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(row.len(), self.nx, "row width mismatch");
        assert!(self.ring.pushed() < self.stream_rows, "stream overrun");
        let evicted = self.ring.push(row);
        let (j, r) = (self.ring.pushed() - 1, self.k.radius());
        (j >= r).then(|| self.emit(j - r, evicted))
    }

    /// After the last input row, drain the trailing `r` output rows.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        assert_eq!(self.ring.pushed(), self.stream_rows, "stream incomplete");
        let mut out = Vec::new();
        while self.next_out < self.stream_rows {
            out.push(self.emit(self.next_out, None));
        }
        out
    }

    /// Rows currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.ring.resident()
    }
}

/// One lane-parallel pipeline stage streaming planes of a (possibly
/// batched) 3D mesh — the fast-path counterpart of
/// [`crate::window::StageProcessor3D`].
pub struct FastStageProcessor3D<T: LaneElement, K: LaneOp3D<T>> {
    k: K,
    nx: usize,
    ny: usize,
    stream_planes: usize,
    /// Planes per independent mesh in the stream (seam period).
    mesh_nz: usize,
    ring: RingBuffer<T>,
    next_out: usize,
}

impl<T: LaneElement, K: LaneOp3D<T>> FastStageProcessor3D<T, K> {
    /// Create a processor for a stream of `stream_planes` planes of
    /// `nx × ny` cells, `mesh_nz` planes per independent mesh.
    pub fn new(k: K, nx: usize, ny: usize, stream_planes: usize, mesh_nz: usize) -> Self {
        assert!(stream_planes.is_multiple_of(mesh_nz), "stream must be whole meshes");
        let r = k.radius();
        FastStageProcessor3D {
            k,
            nx,
            ny,
            stream_planes,
            mesh_nz,
            ring: RingBuffer::new(2 * r + 1),
            next_out: 0,
        }
    }

    /// Compute output plane `z` in place, row by row in storage order,
    /// into `reuse` (a plane the window evicted) or a fresh plane, writing
    /// every cell.
    fn emit(&mut self, z: usize, reuse: Option<Vec<T>>) -> Vec<T> {
        let (nx, ny, k) = (self.nx, self.ny, &self.k);
        let r = k.radius();
        let mut out = reuse.unwrap_or_else(|| vec![T::default(); nx * ny]);
        let lz = z % self.mesh_nz;
        if lz >= r && lz + r < self.mesh_nz {
            let planes = self.ring.window(z - r, 2 * r + 1);
            // The accessors capture by value, so a neighbour read does not
            // chase references through nested closure environments.
            let plane = move |dz: i32| &planes[r.wrapping_add_signed(dz as isize)][..];
            let stride = nx as isize;
            for y in 0..ny {
                let row_out = &mut out[y * nx..(y + 1) * nx];
                let row_center = &planes[r][y * nx..(y + 1) * nx];
                if y < r || y + r >= ny {
                    write_boundary(row_out, row_center, |c| k.on_boundary(c));
                    continue;
                }
                let idx = move |x: usize, dx: i32, dy: i32| {
                    (y * nx + x).wrapping_add_signed(dy as isize * stride + dx as isize)
                };
                write_row(
                    row_out,
                    row_center,
                    r,
                    |c| k.on_boundary(c),
                    |x| {
                        k.apply_lanes(&move |dx, dy, dz, c| {
                            T::gather_lane(plane(dz), idx(x, dx, dy), c)
                        })
                    },
                    |x| k.apply(move |dx, dy, dz| plane(dz)[idx(x, dx, dy)]),
                );
            }
        } else {
            write_boundary(&mut out, self.ring.get(z), |c| k.on_boundary(c));
        }
        self.next_out = z + 1;
        out
    }

    /// Feed the next plane; returns the output plane that became ready.
    pub fn push_plane(&mut self, plane: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(plane.len(), self.nx * self.ny, "plane size mismatch");
        assert!(self.ring.pushed() < self.stream_planes, "stream overrun");
        let evicted = self.ring.push(plane);
        let (j, r) = (self.ring.pushed() - 1, self.k.radius());
        (j >= r).then(|| self.emit(j - r, evicted))
    }

    /// Drain the trailing `r` planes.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        assert_eq!(self.ring.pushed(), self.stream_planes, "stream incomplete");
        let mut out = Vec::new();
        while self.next_out < self.stream_planes {
            out.push(self.emit(self.next_out, None));
        }
        out
    }

    /// Planes currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.ring.resident()
    }
}

/// Write one output row of an interior row in place: the left boundary
/// margin, the interior, then the right boundary margin. An interior of
/// at least [`LANES`] cells goes in lane packs only (`pack(x)` computes
/// the cells `x..x + LANES`): they start at `r`, and the last one starts
/// at `hi − LANES` (`hi = nx − r`), overlapping the one before it unless
/// the interior is a whole number of packs. A narrower interior goes cell
/// by cell (`cell(x)`). Covers every cell of `out`, also when the row is
/// narrower than `2r`.
#[inline(always)]
fn write_row<T: LaneElement>(
    out: &mut [T],
    center: &[T],
    r: usize,
    on_boundary: impl Fn(T) -> T,
    pack: impl Fn(usize) -> T::Lanes,
    cell: impl Fn(usize) -> T,
) {
    let nx = out.len();
    let (lo, hi) = (r.min(nx), nx.saturating_sub(r));
    write_boundary(&mut out[..lo], &center[..lo], &on_boundary);
    if hi >= lo + LANES {
        // Lane packs from `lo`; the last one is moved back to end at `hi`,
        // overlapping its predecessor. Each lane computes only its own
        // cell, so a cell written twice gets the same bits both times.
        // `pack` keeps a single call site: a second one stops LLVM from
        // vectorizing the kernel body.
        let mut x = lo;
        while x < hi {
            let at = x.min(hi - LANES);
            // Scatter into a fixed-size stack buffer, then copy the run in
            // one go: a scatter straight into `out` would bounds-check
            // every lane of every component.
            let mut buf = [T::default(); LANES];
            T::scatter(pack(at), &mut buf, 0);
            out[at..at + LANES].copy_from_slice(&buf);
            x = at + LANES;
        }
    } else {
        // An interior narrower than one pack goes cell by cell.
        for (x, o) in out.iter_mut().enumerate().take(hi).skip(lo) {
            *o = cell(x);
        }
    }
    let right = hi.max(r).min(nx);
    write_boundary(&mut out[right..], &center[right..], on_boundary);
}

impl<T: LaneElement, K: LaneOp2D<T>> Stage<T> for FastStageProcessor2D<T, K> {
    const UNITS: &'static str = "rows";
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.push_row(unit)
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        FastStageProcessor2D::finish(self)
    }
    fn window_fill(&self) -> usize {
        FastStageProcessor2D::window_fill(self)
    }
}

impl<T: LaneElement, K: LaneOp3D<T>> Stage<T> for FastStageProcessor3D<T, K> {
    const UNITS: &'static str = "planes";
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.push_plane(unit)
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        FastStageProcessor3D::finish(self)
    }
    fn window_fill(&self) -> usize {
        FastStageProcessor3D::window_fill(self)
    }
}

/// Which execution engine a run streams through (the `--exec` CLI flag).
///
/// Both engines are bit-exact against the golden reference; `Fast` is the
/// default everywhere a kernel carries a lane impl. As an [`Engine2D`] /
/// [`Engine3D`] it serves kernels with a lane impl ([`LaneOp2D`] /
/// [`LaneOp3D`]); kernels without one run on
/// [`ScalarEngine`](crate::window::ScalarEngine).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecEngine {
    /// Cell-at-a-time scalar stage processors — the reference path.
    Scalar,
    /// Lane-parallel stage processors advancing [`LANES`] cells per step.
    #[default]
    Fast,
}

impl ExecEngine {
    /// Stable lowercase name (CLI values, JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            ExecEngine::Scalar => "scalar",
            ExecEngine::Fast => "fast",
        }
    }

    /// Parse a CLI engine name.
    pub fn parse(s: &str) -> Option<ExecEngine> {
        match s {
            "scalar" => Some(ExecEngine::Scalar),
            "fast" => Some(ExecEngine::Fast),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The stage an [`ExecEngine`] builds: the scalar or the lane-parallel
/// processor, chosen once per stage and matched once per unit.
pub enum ExecStage<S, F> {
    /// A cell-at-a-time [`StageProcessor2D`] / [`StageProcessor3D`].
    Scalar(S),
    /// A lane-parallel [`FastStageProcessor2D`] / [`FastStageProcessor3D`].
    Fast(F),
}

impl<T: Element, S: Stage<T>, F: Stage<T>> Stage<T> for ExecStage<S, F> {
    const UNITS: &'static str = S::UNITS;
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        match self {
            ExecStage::Scalar(s) => s.push(unit),
            ExecStage::Fast(f) => f.push(unit),
        }
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        match self {
            ExecStage::Scalar(s) => s.finish(),
            ExecStage::Fast(f) => f.finish(),
        }
    }
    fn window_fill(&self) -> usize {
        match self {
            ExecStage::Scalar(s) => s.window_fill(),
            ExecStage::Fast(f) => f.window_fill(),
        }
    }
}

impl<T: LaneElement, K: LaneOp2D<T> + Clone> Engine2D<T, K> for ExecEngine {
    type Stage = ExecStage<StageProcessor2D<T, K>, FastStageProcessor2D<T, K>>;
    fn stage(&self, k: &K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self::Stage {
        let k = k.clone();
        match self {
            ExecEngine::Scalar => {
                ExecStage::Scalar(StageProcessor2D::new(k, nx, stream_rows, mesh_ny))
            }
            ExecEngine::Fast => {
                ExecStage::Fast(FastStageProcessor2D::new(k, nx, stream_rows, mesh_ny))
            }
        }
    }
}

impl<T: LaneElement, K: LaneOp3D<T> + Clone> Engine3D<T, K> for ExecEngine {
    type Stage = ExecStage<StageProcessor3D<T, K>, FastStageProcessor3D<T, K>>;
    fn stage(
        &self,
        k: &K,
        nx: usize,
        ny: usize,
        stream_planes: usize,
        mesh_nz: usize,
    ) -> Self::Stage {
        let k = k.clone();
        match self {
            ExecEngine::Scalar => {
                ExecStage::Scalar(StageProcessor3D::new(k, nx, ny, stream_planes, mesh_nz))
            }
            ExecEngine::Fast => {
                ExecStage::Fast(FastStageProcessor3D::new(k, nx, ny, stream_planes, mesh_nz))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
    use crate::device::FpgaDevice;
    use crate::exec2d::{simulate_2d, simulate_mesh_2d};
    use crate::exec3d::simulate_3d;
    use crate::window::ScalarEngine;
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Batch2D, Batch3D, Mesh2D, Mesh3D};
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json, Recorder};

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn fast_2d_bit_exact_vs_scalar_and_reference() {
        // 40 % 8 == 0 exercises full-lane rows; interior width 38 ends in
        // a pack that overlaps the one before it by 2 cells.
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let (scalar, scalar_rep) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 12);
        let off = &mut Recorder::disabled();
        let (fast, fast_rep) =
            simulate_2d_exec(ExecEngine::Fast, &dev(), &ds, &[Poisson2D], &batch, 12, off);
        assert!(norms::bit_equal(fast.as_slice(), scalar.as_slice()));
        assert_eq!(fast_rep.total_cycles, scalar_rep.total_cycles);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn fast_3d_bit_exact_vs_scalar() {
        let m = Mesh3D::<f32>::random(19, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 19, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let k = Jacobi3D::smoothing();
        let (scalar, _) = simulate_3d(&dev(), &ds, &[k], &batch, 6);
        let off = &mut Recorder::disabled();
        let (fast, _) = simulate_3d_exec(ExecEngine::Fast, &dev(), &ds, &[k], &batch, 6, off);
        assert!(norms::bit_equal(fast.as_slice(), scalar.as_slice()));
        let expect = reference::run_3d(&k, &m, 6);
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn fast_tiled_2d_bit_exact() {
        let m = Mesh2D::<f32>::random(200, 30, 13, -1.0, 1.0);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            8,
            ExecMode::Tiled1D { tile_m: 64 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let (scalar, _) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 16);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let off = &mut Recorder::disabled();
        let (fast, _) =
            simulate_2d_exec(ExecEngine::Fast, &dev(), &ds, &[Poisson2D], &batch, 16, off);
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), scalar.as_slice()));
    }

    /// Chrome and flat-metrics JSON of one traced run.
    fn traces(run: impl FnOnce(&mut Recorder), ds: &StencilDesign) -> (String, String) {
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        run(&mut rec);
        (to_chrome_json(&rec), to_metrics_json(&rec))
    }

    #[test]
    fn fast_traces_byte_identical_to_scalar() {
        // The chain labels `window.*` events with `Stage::UNITS` and
        // samples `window_fill`, so a wrong `ExecStage` delegation shows
        // up as a trace difference.
        let m = Mesh2D::<f32>::random(40, 24, 3, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let ks = [Poisson2D];
        let scalar =
            traces(|r| drop(simulate_2d_exec(ScalarEngine, &dev(), &ds, &ks, &batch, 8, r)), &ds);
        for e in [ExecEngine::Scalar, ExecEngine::Fast] {
            let t = traces(|r| drop(simulate_2d_exec(e, &dev(), &ds, &ks, &batch, 8, r)), &ds);
            assert_eq!(t, scalar, "2D traces differ on {e}");
        }

        let m = Mesh3D::<f32>::random(19, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 19, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let ks = [Jacobi3D::smoothing()];
        let scalar =
            traces(|r| drop(simulate_3d_exec(ScalarEngine, &dev(), &ds, &ks, &batch, 6, r)), &ds);
        assert!(scalar.1.contains("window.planes_streamed"), "3D trace names planes");
        for e in [ExecEngine::Scalar, ExecEngine::Fast] {
            let t = traces(|r| drop(simulate_3d_exec(e, &dev(), &ds, &ks, &batch, 6, r)), &ds);
            assert_eq!(t, scalar, "3D traces differ on {e}");
        }
    }

    #[test]
    fn write_row_covers_every_cell_with_packs_inside_the_interior() {
        // Interior cell x is worth x (from a pack lane or from `cell`),
        // boundary cell x is worth `on_boundary` of its centre value x, so
        // a cell written by the wrong source shows up as a wrong value.
        let boundary = |v: f32| 1000.0 + v;
        for r in 0..=4 {
            for nx in 1..=3 * LANES + 2 * r {
                let centre: Vec<f32> = (0..nx).map(|x| x as f32).collect();
                let (lo, hi) = (r.min(nx), nx.saturating_sub(r));
                let packs = std::cell::RefCell::new(Vec::new());
                let cells = std::cell::RefCell::new(Vec::new());
                let boundary_calls = std::cell::RefCell::new(Vec::new());
                let mut out = vec![f32::NAN; nx];
                write_row(
                    &mut out,
                    &centre,
                    r,
                    |v| {
                        boundary_calls.borrow_mut().push(v as usize);
                        boundary(v)
                    },
                    |x| {
                        packs.borrow_mut().push(x);
                        sf_simd::F32xL(std::array::from_fn(|i| (x + i) as f32))
                    },
                    |x| {
                        cells.borrow_mut().push(x);
                        x as f32
                    },
                );
                let case = format!("nx {nx} r {r}");
                for (x, &v) in out.iter().enumerate() {
                    let want = if (lo..hi).contains(&x) { x as f32 } else { boundary(x as f32) };
                    assert_eq!(v, want, "{case}: cell {x}");
                }
                let mut called = boundary_calls.into_inner();
                called.sort_unstable();
                let edges: Vec<usize> = (0..nx).filter(|x| !(lo..hi).contains(x)).collect();
                assert_eq!(called, edges, "{case}: on_boundary calls");
                let (packs, cells) = (packs.into_inner(), cells.into_inner());
                if hi.saturating_sub(lo) >= LANES {
                    assert!(cells.is_empty(), "{case}: scalar cells {cells:?}");
                    assert_eq!(packs.len(), (hi - lo).div_ceil(LANES), "{case}: pack count");
                    for &x in &packs {
                        assert!(x >= r && x + LANES <= hi, "{case}: pack at {x}");
                    }
                    assert_eq!(packs.last(), Some(&(hi - LANES)), "{case}: last pack");
                } else {
                    assert!(packs.is_empty(), "{case}: packs {packs:?}");
                    assert_eq!(cells, (lo..hi).collect::<Vec<_>>(), "{case}: scalar cells");
                }
            }
        }
    }

    #[test]
    fn exec_engine_names_round_trip() {
        assert_eq!(ExecEngine::parse("fast"), Some(ExecEngine::Fast));
        assert_eq!(ExecEngine::parse("scalar"), Some(ExecEngine::Scalar));
        assert_eq!(ExecEngine::parse("simd"), None);
        assert_eq!(ExecEngine::default(), ExecEngine::Fast);
        for e in [ExecEngine::Scalar, ExecEngine::Fast] {
            assert_eq!(ExecEngine::parse(e.name()), Some(e));
            assert_eq!(format!("{e}"), e.name());
        }
    }
}
