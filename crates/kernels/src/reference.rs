//! Golden sequential reference executors.
//!
//! These are the trusted implementations every accelerated path (the FPGA
//! dataflow simulator, the Rayon executors, the rollback executor's ABFT
//! oracle) is validated against. They are deliberately simple:
//! double-buffered, interior-update / boundary pass-through, one output row
//! at a time in storage order.
//!
//! A stage is evaluated row by row, the way the paper's window buffers
//! stream a mesh (§III), rather than cell by cell with a coordinate test
//! and a 3-index address per neighbour read:
//!
//! * a row inside the `r`-wide boundary band on `y` (or `z`) maps every cell
//!   through [`StencilOp2D::on_boundary`];
//! * otherwise its first and last `r` cells map through `on_boundary`, and
//!   every cell in between calls `apply` with an accessor that reads
//!   `src[c + dz·nx·ny + dy·nx + dx]` — one flat offset from the centre
//!   index `c`, one bounds check.
//!
//! Every cell therefore sees the same `apply` or `on_boundary` call on the
//! same neighbour values as the coordinate-wise definition (kept as an
//! executable spec in this module's tests), so the results are bit-identical
//! to it. [`step_row_2d`]/[`step_row_3d`] are the single row body; the
//! Rayon executors in [`crate::parallel`] run the same function per row.

use crate::op2d::StencilOp2D;
use crate::op3d::StencilOp3D;
use crate::rtm::{self, RtmParams, RtmStage, RtmState};
use sf_mesh::{Batch2D, Batch3D, Element, Mesh2D, Mesh3D};

/// Compute output row `y` of one 2D stage into `out` (`nx` cells): interior
/// cells get `k.apply`, boundary cells get `k.on_boundary`.
pub fn step_row_2d<T: Element, K: StencilOp2D<T>>(
    k: &K,
    input: &Mesh2D<T>,
    y: usize,
    out: &mut [T],
) {
    let (nx, ny) = (input.nx(), input.ny());
    assert_eq!(out.len(), nx, "an output row holds nx cells");
    let r = k.radius();
    let ri = r as i32;
    let src = input.as_slice();
    let base = y * nx;
    let cells = &src[base..base + nx];
    if y < r || y + r >= ny || nx <= 2 * r {
        for (o, &c) in out.iter_mut().zip(cells) {
            *o = k.on_boundary(c);
        }
        return;
    }
    let stride = nx as isize;
    for x in (0..r).chain(nx - r..nx) {
        out[x] = k.on_boundary(cells[x]);
    }
    for (x, o) in out.iter_mut().enumerate().take(nx - r).skip(r) {
        let c = (base + x) as isize;
        *o = k.apply(|dx, dy| {
            debug_assert!(dx.abs() <= ri && dy.abs() <= ri);
            src[(c + dy as isize * stride + dx as isize) as usize]
        });
    }
}

/// Apply one 2D stage: interior cells get `k.apply`, boundary cells get
/// `k.on_boundary`.
pub fn step_2d<T: Element, K: StencilOp2D<T>>(k: &K, input: &Mesh2D<T>) -> Mesh2D<T> {
    let nx = input.nx();
    let mut out = Mesh2D::<T>::zeros(nx, input.ny());
    for (y, row) in out.as_mut_slice().chunks_mut(nx).enumerate() {
        step_row_2d(k, input, y, row);
    }
    out
}

/// Run `iters` iterations of a single 2D stencil loop.
pub fn run_2d<T: Element, K: StencilOp2D<T>>(k: &K, mesh: &Mesh2D<T>, iters: usize) -> Mesh2D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        cur = step_2d(k, &cur);
    }
    cur
}

/// Compute output row `row = z·ny + y` (storage order) of one 3D stage into
/// `out` (`nx` cells).
pub fn step_row_3d<T: Element, K: StencilOp3D<T>>(
    k: &K,
    input: &Mesh3D<T>,
    row: usize,
    out: &mut [T],
) {
    let (nx, ny, nz) = (input.nx(), input.ny(), input.nz());
    assert_eq!(out.len(), nx, "an output row holds nx cells");
    let (z, y) = (row / ny, row % ny);
    let r = k.radius();
    let ri = r as i32;
    let src = input.as_slice();
    let base = row * nx;
    let cells = &src[base..base + nx];
    if z < r || z + r >= nz || y < r || y + r >= ny || nx <= 2 * r {
        for (o, &c) in out.iter_mut().zip(cells) {
            *o = k.on_boundary(c);
        }
        return;
    }
    let (stride, plane) = (nx as isize, (nx * ny) as isize);
    for x in (0..r).chain(nx - r..nx) {
        out[x] = k.on_boundary(cells[x]);
    }
    for (x, o) in out.iter_mut().enumerate().take(nx - r).skip(r) {
        let c = (base + x) as isize;
        *o = k.apply(|dx, dy, dz| {
            debug_assert!(dx.abs() <= ri && dy.abs() <= ri && dz.abs() <= ri);
            src[(c + dz as isize * plane + dy as isize * stride + dx as isize) as usize]
        });
    }
}

/// Apply one 3D stage.
pub fn step_3d<T: Element, K: StencilOp3D<T>>(k: &K, input: &Mesh3D<T>) -> Mesh3D<T> {
    let nx = input.nx();
    let mut out = Mesh3D::<T>::zeros(nx, input.ny(), input.nz());
    for (row, cells) in out.as_mut_slice().chunks_mut(nx).enumerate() {
        step_row_3d(k, input, row, cells);
    }
    out
}

/// Run `iters` iterations of a single 3D stencil loop.
pub fn run_3d<T: Element, K: StencilOp3D<T>>(k: &K, mesh: &Mesh3D<T>, iters: usize) -> Mesh3D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        cur = step_3d(k, &cur);
    }
    cur
}

/// Run `iters` iterations of a *multi-stage* 2D loop chain (all stages
/// applied per iteration, in order) — the pre-fusion view of a 2D multi-loop
/// application such as [`crate::wave2d`].
pub fn run_stages_2d<T: Element, K: StencilOp2D<T>>(
    stages: &[K],
    mesh: &Mesh2D<T>,
    iters: usize,
) -> Mesh2D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        for k in stages {
            cur = step_2d(k, &cur);
        }
    }
    cur
}

/// Run `iters` iterations of a *multi-stage* 3D loop chain (all stages applied
/// per iteration, in order) — the pre-fusion view of RTM's Algorithm 1.
pub fn run_stages_3d<T: Element, K: StencilOp3D<T>>(
    stages: &[K],
    mesh: &Mesh3D<T>,
    iters: usize,
) -> Mesh3D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        for k in stages {
            cur = step_3d(k, &cur);
        }
    }
    cur
}

/// Run a batch of independent 2D problems (the semantic ground truth the
/// batched FPGA execution must reproduce).
pub fn run_batch_2d<T: Element, K: StencilOp2D<T>>(
    k: &K,
    batch: &Batch2D<T>,
    iters: usize,
) -> Batch2D<T> {
    let meshes: Vec<_> = (0..batch.batch()).map(|i| run_2d(k, &batch.mesh(i), iters)).collect();
    Batch2D::from_meshes(&meshes)
}

/// Run a batch of independent 3D problems.
pub fn run_batch_3d<T: Element, K: StencilOp3D<T>>(
    k: &K,
    batch: &Batch3D<T>,
    iters: usize,
) -> Batch3D<T> {
    let meshes: Vec<_> = (0..batch.batch()).map(|i| run_3d(k, &batch.mesh(i), iters)).collect();
    Batch3D::from_meshes(&meshes)
}

/// Full RTM forward pass: pack, run `iters` RK4 steps (4 fused stages each),
/// unpack the state.
pub fn rtm_run(
    y: &Mesh3D<RtmState>,
    rho: &Mesh3D<f32>,
    mu: &Mesh3D<f32>,
    params: RtmParams,
    iters: usize,
) -> Mesh3D<RtmState> {
    let stages = RtmStage::pipeline(params);
    let packed0 = rtm::pack(y, rho, mu);
    let packed = run_stages_3d(&stages, &packed0, iters);
    rtm::unpack(&packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi3d::Jacobi3D;
    use crate::poisson::Poisson2D;
    use crate::rtm::RtmPacked;
    use crate::star::{StarStencil2D, StarStencil3D};
    use sf_mesh::norms;

    /// The coordinate-wise definition of a 2D stage, kept as the executable
    /// spec the row-blocked [`step_2d`] must reproduce bit for bit.
    fn spec_step_2d<T: Element, K: StencilOp2D<T>>(k: &K, input: &Mesh2D<T>) -> Mesh2D<T> {
        let r = k.radius();
        Mesh2D::from_fn(input.nx(), input.ny(), |x, y| {
            if input.is_interior(x, y, r) {
                k.apply(|dx, dy| input.get((x as i32 + dx) as usize, (y as i32 + dy) as usize))
            } else {
                k.on_boundary(input.get(x, y))
            }
        })
    }

    /// The coordinate-wise definition of a 3D stage (see [`spec_step_2d`]).
    fn spec_step_3d<T: Element, K: StencilOp3D<T>>(k: &K, input: &Mesh3D<T>) -> Mesh3D<T> {
        let r = k.radius();
        Mesh3D::from_fn(input.nx(), input.ny(), input.nz(), |x, y, z| {
            if input.is_interior(x, y, z, r) {
                k.apply(|dx, dy, dz| {
                    input.get(
                        (x as i32 + dx) as usize,
                        (y as i32 + dy) as usize,
                        (z as i32 + dz) as usize,
                    )
                })
            } else {
                k.on_boundary(input.get(x, y, z))
            }
        })
    }

    /// Shapes around a radius-`r` stencil: an extent below `2r+1` on each
    /// axis in turn, exactly `2r+1`, one cell wide/tall/deep, and a ragged
    /// `37×13×9`.
    fn spec_shapes_3d(r: usize) -> Vec<(usize, usize, usize)> {
        let (s, w) = (2 * r, 2 * r + 1);
        vec![
            (s, 9, 9),
            (9, s, 9),
            (9, 9, s),
            (w, w, w),
            (1, 9, 9),
            (9, 1, 9),
            (9, 9, 1),
            (37, 13, 9),
        ]
    }

    fn spec_shapes_2d(r: usize) -> Vec<(usize, usize)> {
        let (s, w) = (2 * r, 2 * r + 1);
        vec![(s, 9), (9, s), (w, w), (1, 9), (9, 1), (37, 13)]
    }

    fn assert_matches_spec_2d<T: Element, K: StencilOp2D<T>>(name: &str, k: &K) {
        for (i, (nx, ny)) in spec_shapes_2d(k.radius()).into_iter().enumerate() {
            let m = Mesh2D::<T>::random(nx, ny, 40 + i as u64, -1.0, 1.0);
            assert!(
                norms::bit_equal(step_2d(k, &m).as_slice(), spec_step_2d(k, &m).as_slice()),
                "{name} {nx}x{ny}: row-blocked step differs from the spec"
            );
        }
    }

    fn assert_matches_spec_3d<T: Element, K: StencilOp3D<T>>(name: &str, k: &K, lo: f32, hi: f32) {
        for (i, (nx, ny, nz)) in spec_shapes_3d(k.radius()).into_iter().enumerate() {
            let m = Mesh3D::<T>::random(nx, ny, nz, 70 + i as u64, lo, hi);
            assert!(
                norms::bit_equal(step_3d(k, &m).as_slice(), spec_step_3d(k, &m).as_slice()),
                "{name} {nx}x{ny}x{nz}: row-blocked step differs from the spec"
            );
        }
    }

    #[test]
    fn step_2d_matches_coordinate_spec() {
        assert_matches_spec_2d::<f32, _>("poisson", &Poisson2D);
        assert_matches_spec_2d::<f32, _>("laplace9", &StarStencil2D::laplace9_order4(0.1, 0.4));
    }

    #[test]
    fn step_3d_matches_coordinate_spec() {
        assert_matches_spec_3d::<f32, _>("jacobi", &Jacobi3D::smoothing(), -1.0, 1.0);
        let high = StarStencil3D::high_order(&[-30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0], 0.05, 0.7);
        assert_eq!(high.radius(), 2);
        assert_matches_spec_3d::<f32, _>("high_order r2", &high, -1.0, 1.0);
    }

    #[test]
    fn rtm_stages_match_coordinate_spec() {
        // Every packed component (state, T, Yacc, ρ, μ) is drawn per cell,
        // so a wrong offset on any axis or component shows up in the bits.
        let prm = RtmParams::default();
        for stage in [1, 4] {
            let k = RtmStage::new(stage, prm);
            assert_matches_spec_3d::<RtmPacked, _>(&format!("rtm stage {stage}"), &k, 0.5, 1.0);
        }
    }

    #[test]
    fn poisson_boundary_held_fixed() {
        let m = Mesh2D::<f32>::random(8, 8, 1, 0.0, 1.0);
        let out = run_2d(&Poisson2D, &m, 5);
        for x in 0..8 {
            assert_eq!(out.get(x, 0), m.get(x, 0));
            assert_eq!(out.get(x, 7), m.get(x, 7));
            assert_eq!(out.get(0, x), m.get(0, x));
            assert_eq!(out.get(7, x), m.get(7, x));
        }
    }

    #[test]
    fn poisson_zero_iters_is_identity() {
        let m = Mesh2D::<f32>::random(10, 6, 2, -1.0, 1.0);
        assert_eq!(run_2d(&Poisson2D, &m, 0), m);
    }

    #[test]
    fn poisson_smooths_towards_boundary_values() {
        // all-zero boundary, hot interior → interior decays
        let mut m = Mesh2D::<f32>::zeros(16, 16);
        m.set(8, 8, 100.0);
        let out = run_2d(&Poisson2D, &m, 500);
        assert!(out.get(8, 8).abs() < 1.0, "interior must decay, got {}", out.get(8, 8));
        assert!(out.all_finite());
    }

    #[test]
    fn poisson_one_step_hand_checked() {
        let m = Mesh2D::<f32>::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        let out = step_2d(&Poisson2D, &m);
        // center: neighbors 3,5,1,7 sum=16 → 2 + 0.5*4 = 4
        assert_eq!(out.get(1, 1), 4.0);
        assert_eq!(out.get(0, 0), 0.0); // boundary held
    }

    #[test]
    fn jacobi_converges_for_smoothing_coefficients() {
        let m = Mesh3D::<f32>::random(12, 12, 12, 3, -1.0, 1.0);
        let out = run_3d(&Jacobi3D::smoothing(), &m, 200);
        assert!(out.all_finite());
        // smoothing contracts the interior towards the (random) boundary
        // envelope; max norm must not grow
        assert!(norms::max_norm_3d(&out) <= norms::max_norm_3d(&m) + 1e-6);
    }

    #[test]
    fn batch_equals_independent_runs() {
        let meshes: Vec<_> = (0..3).map(|i| Mesh2D::<f32>::random(8, 6, i, 0.0, 1.0)).collect();
        let batch = Batch2D::from_meshes(&meshes);
        let out = run_batch_2d(&Poisson2D, &batch, 7);
        for (i, m) in meshes.iter().enumerate() {
            let solo = run_2d(&Poisson2D, m, 7);
            assert!(
                norms::bit_equal(out.mesh(i).as_slice(), solo.as_slice()),
                "batched mesh {i} diverged from independent solve"
            );
        }
    }

    #[test]
    fn rtm_stays_finite_and_damps() {
        let (y, rho, mu) = rtm::demo_workload(14, 14, 14);
        let out = rtm_run(&y, &rho, &mu, RtmParams::default(), 50);
        assert!(out.all_finite());
    }

    #[test]
    fn rtm_zero_field_stays_zero() {
        let y = Mesh3D::<RtmState>::zeros(12, 12, 12);
        let rho = Mesh3D::<f32>::from_fn(12, 12, 12, |_, _, _| 1.0);
        let mu = Mesh3D::<f32>::from_fn(12, 12, 12, |_, _, _| 0.02);
        let out = rtm_run(&y, &rho, &mu, RtmParams::default(), 10);
        assert!(norms::max_norm_3d(&out) == 0.0);
    }

    #[test]
    fn rtm_wave_propagates_from_pulse() {
        let (y, rho, mu) = rtm::demo_workload(16, 16, 16);
        let out = rtm_run(&y, &rho, &mu, RtmParams { dt: 0.05, sigma: 0.01, sigma2: 0.01 }, 30);
        // a point 3 cells from the center starts ~0 in q; the wave coupling
        // must have moved something there
        let probe = out.get(11, 8, 8);
        assert!(probe.0.iter().any(|&v| v != y.get(11, 8, 8).0[0] && v.abs() > 0.0));
        assert!(out.all_finite());
    }
}
