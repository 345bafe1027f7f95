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
//! than transposing whole cells. Boundary cells and the ragged tail
//! of each row go through the kernel's scalar `apply`/`on_boundary`
//! methods. The result is bit-identical to the scalar executors (and hence
//! to the golden reference) for every mesh shape, batch size and stencil.
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
//! processed left boundary → lane packs → scalar epilogue → right boundary,
//! touching each cache line once per stencil row.

pub use crate::exec2d::simulate_2d_exec;
pub use crate::exec3d::simulate_3d_exec;
pub use crate::exec_batch::{simulate_batch_2d_parallel_exec, simulate_batch_3d_parallel_exec};
pub use crate::recovery::{
    simulate_2d_recoverable_exec, simulate_3d_recoverable_exec, simulate_batch_2d_recoverable_exec,
    simulate_batch_3d_recoverable_exec,
};
pub use crate::resilient::{simulate_2d_resilient_exec, simulate_3d_resilient_exec};
use crate::window::{Engine2D, Engine3D, RingBuffer, Stage, StageProcessor2D, StageProcessor3D};
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
    r: usize,
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
            r,
            ring: RingBuffer::new(2 * r + 1),
            next_out: 0,
        }
    }

    fn emit(&mut self, y: usize) -> Vec<T> {
        let (nx, r) = (self.nx, self.r);
        let ly = y % self.mesh_ny;
        let y_interior = ly >= r && ly + r < self.mesh_ny;
        // Every cell is produced exactly once (left boundary, lane body,
        // scalar epilogue, right boundary), so the row is built by pushing
        // into reserved capacity — no default-fill pass over the row.
        let mut out = Vec::with_capacity(nx);
        if !y_interior {
            // Boundary row of its mesh: every cell is a boundary cell.
            out.extend(self.ring.get(y).iter().map(|c| self.k.on_boundary(*c)));
        } else {
            // Interior ly ≥ r implies y ≥ r, so the window rows y−r..=y+r
            // are all resident; hoist the borrows out of the cell loop.
            let rows: Vec<&[T]> = (0..2 * r + 1).map(|d| self.ring.get(y + d - r)).collect();
            let center = rows[r];
            out.extend(center.iter().take(r.min(nx)).map(|c| self.k.on_boundary(*c)));
            let hi = nx.saturating_sub(r);
            let mut x = r;
            while x + LANES <= hi {
                let at = |dx: i32, dy: i32, c: usize| {
                    T::gather_lane(rows[(dy + r as i32) as usize], (x as i32 + dx) as usize, c)
                };
                let lanes = self.k.apply_lanes(&at);
                let mut buf = [T::default(); LANES];
                T::scatter(lanes, &mut buf, 0);
                out.extend_from_slice(&buf);
                x += LANES;
            }
            // Scalar epilogue for the ragged tail (hi − x < LANES cells).
            while x < hi {
                out.push(
                    self.k.apply(|dx, dy| rows[(dy + r as i32) as usize][(x as i32 + dx) as usize]),
                );
                x += 1;
            }
            out.extend(center.iter().skip(hi.max(r)).map(|c| self.k.on_boundary(*c)));
        }
        debug_assert_eq!(out.len(), nx);
        self.next_out = y + 1;
        out
    }

    /// Feed the next input row; returns the output row that became ready
    /// (none while the window is filling).
    pub fn push_row(&mut self, row: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(row.len(), self.nx, "row width mismatch");
        assert!(self.ring.pushed() < self.stream_rows, "stream overrun");
        self.ring.push(row);
        let j = self.ring.pushed() - 1;
        if j >= self.r {
            Some(self.emit(j - self.r))
        } else {
            None
        }
    }

    /// After the last input row, drain the trailing `r` output rows.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        assert_eq!(self.ring.pushed(), self.stream_rows, "stream incomplete");
        let mut out = Vec::new();
        while self.next_out < self.stream_rows {
            out.push(self.emit(self.next_out));
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
    r: usize,
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
            r,
            ring: RingBuffer::new(2 * r + 1),
            next_out: 0,
        }
    }

    fn emit(&mut self, z: usize) -> Vec<T> {
        let (nx, ny, r) = (self.nx, self.ny, self.r);
        let lz = z % self.mesh_nz;
        let z_interior = lz >= r && lz + r < self.mesh_nz;
        // Built row by row in storage order by pushing into reserved
        // capacity — every cell is produced exactly once, so no
        // default-fill pass over the plane.
        let mut out = Vec::with_capacity(nx * ny);
        if !z_interior {
            out.extend(self.ring.get(z).iter().map(|c| self.k.on_boundary(*c)));
        } else {
            let planes: Vec<&[T]> = (0..2 * r + 1).map(|d| self.ring.get(z + d - r)).collect();
            let center = planes[r];
            for y in 0..ny {
                let row_off = y * nx;
                let row_center = &center[row_off..row_off + nx];
                let y_interior = y >= r && y + r < ny;
                if !y_interior {
                    out.extend(row_center.iter().map(|c| self.k.on_boundary(*c)));
                    continue;
                }
                out.extend(row_center.iter().take(r.min(nx)).map(|c| self.k.on_boundary(*c)));
                let hi = nx.saturating_sub(r);
                let mut x = r;
                while x + LANES <= hi {
                    let at = |dx: i32, dy: i32, dz: i32, c: usize| {
                        let plane = planes[(dz + r as i32) as usize];
                        let idx = ((y as i32 + dy) as usize) * nx + (x as i32 + dx) as usize;
                        T::gather_lane(plane, idx, c)
                    };
                    let lanes = self.k.apply_lanes(&at);
                    let mut buf = [T::default(); LANES];
                    T::scatter(lanes, &mut buf, 0);
                    out.extend_from_slice(&buf);
                    x += LANES;
                }
                while x < hi {
                    out.push(self.k.apply(|dx, dy, dz| {
                        let plane = planes[(dz + r as i32) as usize];
                        plane[((y as i32 + dy) as usize) * nx + (x as i32 + dx) as usize]
                    }));
                    x += 1;
                }
                out.extend(row_center.iter().skip(hi.max(r)).map(|c| self.k.on_boundary(*c)));
            }
        }
        debug_assert_eq!(out.len(), nx * ny);
        self.next_out = z + 1;
        out
    }

    /// Feed the next plane; returns the output plane that became ready.
    pub fn push_plane(&mut self, plane: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(plane.len(), self.nx * self.ny, "plane size mismatch");
        assert!(self.ring.pushed() < self.stream_planes, "stream overrun");
        self.ring.push(plane);
        let j = self.ring.pushed() - 1;
        if j >= self.r {
            Some(self.emit(j - self.r))
        } else {
            None
        }
    }

    /// Drain the trailing `r` planes.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        assert_eq!(self.ring.pushed(), self.stream_planes, "stream incomplete");
        let mut out = Vec::new();
        while self.next_out < self.stream_planes {
            out.push(self.emit(self.next_out));
        }
        out
    }

    /// Planes currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.ring.resident()
    }
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
        // 40 % 8 == 0 exercises full-lane rows; interior width 38 leaves a
        // ragged tail of 6 cells for the scalar epilogue.
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
