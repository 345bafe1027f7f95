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
//! swap point: the per-stage processor built by [`FastEngine`] instead of
//! [`ScalarEngine`]. Streaming schedule, telemetry hooks (which fire per
//! row/plane, never per cell), drain logic, cycle accounting, fault
//! injection points, watchdog observation and recovery checkpointing are
//! the *same code* for both engines — the one chain runner
//! [`crate::window::run_chain`] —, so traces, [`crate::report::SimReport`]s
//! and fault campaigns are byte-identical across `--exec scalar|fast`.
//!
//! Iteration is row-blocked: each emitted row (2D) or row-of-plane (3D) is
//! processed left boundary → lane packs → scalar epilogue → right boundary,
//! touching each cache line once per stencil row.

use crate::design::StencilDesign;
use crate::device::FpgaDevice;
use crate::error::ExecError;
use crate::exec2d::simulate_2d_core;
use crate::exec3d::simulate_3d_core;
use crate::exec_batch::{simulate_batch_2d_parallel_core, simulate_batch_3d_parallel_core};
use crate::recovery::{
    simulate_2d_recoverable_core, simulate_3d_recoverable_core, simulate_batch_2d_recoverable_core,
    simulate_batch_3d_recoverable_core,
};
use crate::report::SimReport;
use crate::resilient::{simulate_2d_resilient_core, simulate_3d_resilient_core};
use crate::window::{Engine2D, Engine3D, RingBuffer, ScalarEngine, Stage};
use serde::{Deserialize, Serialize};
use sf_faults::{FaultInjector, FaultPlan, RetryPolicy};
use sf_kernels::{LaneElement, LaneOp2D, LaneOp3D};
use sf_mesh::{Batch2D, Batch3D};
use sf_recover::{RecoveryConfig, RecoveryStats};
use sf_simd::LANES;
use sf_telemetry::Recorder;

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

/// The lane-parallel engine: builds [`FastStageProcessor2D`] /
/// [`FastStageProcessor3D`] stages for kernels with a lane impl
/// ([`LaneOp2D`] / [`LaneOp3D`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FastEngine;

impl<T: LaneElement, K: LaneOp2D<T> + Clone> Engine2D<T, K> for FastEngine {
    type Stage = FastStageProcessor2D<T, K>;
    fn stage(&self, k: &K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self::Stage {
        FastStageProcessor2D::new(k.clone(), nx, stream_rows, mesh_ny)
    }
}

impl<T: LaneElement, K: LaneOp3D<T> + Clone> Engine3D<T, K> for FastEngine {
    type Stage = FastStageProcessor3D<T, K>;
    fn stage(
        &self,
        k: &K,
        nx: usize,
        ny: usize,
        stream_planes: usize,
        mesh_nz: usize,
    ) -> Self::Stage {
        FastStageProcessor3D::new(k.clone(), nx, ny, stream_planes, mesh_nz)
    }
}

/// Which execution engine a run streams through (the `--exec` CLI flag).
///
/// Both engines are bit-exact against the golden reference; `Fast` is the
/// default everywhere a kernel carries a lane impl.
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

/// [`crate::exec2d::simulate_2d`] through the fast path.
pub fn simulate_2d_fast<T: LaneElement, K: LaneOp2D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
) -> (Batch2D<T>, SimReport) {
    simulate_2d_core(
        &FastEngine,
        dev,
        design,
        stages_per_iter,
        input,
        niter,
        &mut Recorder::disabled(),
    )
}

/// [`crate::exec3d::simulate_3d`] through the fast path.
pub fn simulate_3d_fast<T: LaneElement, K: LaneOp3D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
) -> (Batch3D<T>, SimReport) {
    simulate_3d_core(
        &FastEngine,
        dev,
        design,
        stages_per_iter,
        input,
        niter,
        &mut Recorder::disabled(),
    )
}

/// Engine-dispatched [`crate::exec2d::simulate_2d_traced`]: `engine`
/// selects scalar or fast stage processors; everything else is identical.
pub fn simulate_2d_exec<T: LaneElement, K: LaneOp2D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    rec: &mut Recorder,
) -> (Batch2D<T>, SimReport) {
    match engine {
        ExecEngine::Scalar => {
            simulate_2d_core(&ScalarEngine, dev, design, stages_per_iter, input, niter, rec)
        }
        ExecEngine::Fast => {
            simulate_2d_core(&FastEngine, dev, design, stages_per_iter, input, niter, rec)
        }
    }
}

/// Engine-dispatched [`crate::exec3d::simulate_3d_traced`].
pub fn simulate_3d_exec<T: LaneElement, K: LaneOp3D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    rec: &mut Recorder,
) -> (Batch3D<T>, SimReport) {
    match engine {
        ExecEngine::Scalar => {
            simulate_3d_core(&ScalarEngine, dev, design, stages_per_iter, input, niter, rec)
        }
        ExecEngine::Fast => {
            simulate_3d_core(&FastEngine, dev, design, stages_per_iter, input, niter, rec)
        }
    }
}

/// Engine-dispatched [`crate::exec_batch::simulate_batch_2d_parallel`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_parallel_exec<T: LaneElement, K: LaneOp2D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Batch2D<T>, SimReport) {
    match engine {
        ExecEngine::Scalar => simulate_batch_2d_parallel_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            jobs,
            rec,
        ),
        ExecEngine::Fast => simulate_batch_2d_parallel_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            jobs,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::exec_batch::simulate_batch_3d_parallel`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_parallel_exec<T: LaneElement, K: LaneOp3D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Batch3D<T>, SimReport) {
    match engine {
        ExecEngine::Scalar => simulate_batch_3d_parallel_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            jobs,
            rec,
        ),
        ExecEngine::Fast => simulate_batch_3d_parallel_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            jobs,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::resilient::simulate_2d_resilient`].
///
/// # Errors
/// Exactly the errors of the scalar resilient executor — injection points
/// and watchdog behavior are engine-independent.
#[allow(clippy::too_many_arguments)]
pub fn simulate_2d_resilient_exec<T: LaneElement, K: LaneOp2D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport), ExecError> {
    match engine {
        ExecEngine::Scalar => simulate_2d_resilient_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rec,
        ),
        ExecEngine::Fast => simulate_2d_resilient_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::resilient::simulate_3d_resilient`].
///
/// # Errors
/// See [`simulate_2d_resilient_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_3d_resilient_exec<T: LaneElement, K: LaneOp3D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport), ExecError> {
    match engine {
        ExecEngine::Scalar => simulate_3d_resilient_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rec,
        ),
        ExecEngine::Fast => simulate_3d_resilient_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::recovery::simulate_2d_recoverable`].
///
/// # Errors
/// Exactly the errors of the scalar recoverable executor.
#[allow(clippy::too_many_arguments)]
pub fn simulate_2d_recoverable_exec<T: LaneElement, K: LaneOp2D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport, RecoveryStats), ExecError> {
    match engine {
        ExecEngine::Scalar => simulate_2d_recoverable_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rcfg,
            rec,
        ),
        ExecEngine::Fast => simulate_2d_recoverable_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rcfg,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::recovery::simulate_3d_recoverable`].
///
/// # Errors
/// See [`simulate_2d_recoverable_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_3d_recoverable_exec<T: LaneElement, K: LaneOp3D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport, RecoveryStats), ExecError> {
    match engine {
        ExecEngine::Scalar => simulate_3d_recoverable_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rcfg,
            rec,
        ),
        ExecEngine::Fast => simulate_3d_recoverable_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            inj,
            policy,
            rcfg,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::recovery::simulate_batch_2d_recoverable`].
///
/// # Errors
/// Exactly the errors of the scalar batch-recoverable executor.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_recoverable_exec<T: LaneElement, K: LaneOp2D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    base_plan: &FaultPlan,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport, RecoveryStats), ExecError> {
    match engine {
        ExecEngine::Scalar => simulate_batch_2d_recoverable_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            base_plan,
            policy,
            rcfg,
            jobs,
            rec,
        ),
        ExecEngine::Fast => simulate_batch_2d_recoverable_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            base_plan,
            policy,
            rcfg,
            jobs,
            rec,
        ),
    }
}

/// Engine-dispatched [`crate::recovery::simulate_batch_3d_recoverable`].
///
/// # Errors
/// See [`simulate_batch_2d_recoverable_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_recoverable_exec<T: LaneElement, K: LaneOp3D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    base_plan: &FaultPlan,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport, RecoveryStats), ExecError> {
    match engine {
        ExecEngine::Scalar => simulate_batch_3d_recoverable_core(
            &ScalarEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            base_plan,
            policy,
            rcfg,
            jobs,
            rec,
        ),
        ExecEngine::Fast => simulate_batch_3d_recoverable_core(
            &FastEngine,
            dev,
            design,
            stages_per_iter,
            input,
            niter,
            base_plan,
            policy,
            rcfg,
            jobs,
            rec,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind, Workload};
    use crate::exec2d::{simulate_2d, simulate_2d_traced, simulate_mesh_2d};
    use crate::exec3d::simulate_3d;
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Mesh2D, Mesh3D};
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json};

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
        let (fast, fast_rep) = simulate_2d_fast(&dev(), &ds, &[Poisson2D], &batch, 12);
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
        let (fast, _) = simulate_3d_fast(&dev(), &ds, &[k], &batch, 6);
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
        let (fast, _) = simulate_2d_fast(&dev(), &ds, &[Poisson2D], &batch, 16);
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), scalar.as_slice()));
    }

    #[test]
    fn fast_traces_byte_identical_to_scalar() {
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
        let mut rec_s = Recorder::enabled(ds.freq_hz / 1e6);
        let _ = simulate_2d_traced(&dev(), &ds, &[Poisson2D], &batch, 8, &mut rec_s);
        let mut rec_f = Recorder::enabled(ds.freq_hz / 1e6);
        let _ =
            simulate_2d_exec(ExecEngine::Fast, &dev(), &ds, &[Poisson2D], &batch, 8, &mut rec_f);
        assert_eq!(to_chrome_json(&rec_s), to_chrome_json(&rec_f));
        assert_eq!(to_metrics_json(&rec_s), to_metrics_json(&rec_f));
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
