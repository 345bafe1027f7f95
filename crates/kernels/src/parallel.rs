//! Rayon data-parallel executors.
//!
//! These serve two roles:
//!
//! 1. they compute the *numerics* for the GPU comparator in `sf-gpu`
//!    (the V100's runtime comes from the analytic performance model, but the
//!    result meshes come from here), and
//! 2. they are the fast CPU baselines used by the examples and benches.
//!
//! Because each output cell is an independent pure function of the input
//! mesh, row-parallel evaluation is **bit-exact** vs. the sequential
//! reference — asserted by the tests below and by integration tests.

use crate::op2d::StencilOp2D;
use crate::op3d::StencilOp3D;
use crate::reference;
use crate::rtm::{self, RtmParams, RtmStage, RtmState};
use rayon::prelude::*;
use sf_mesh::{Batch2D, Batch3D, Element, Mesh2D, Mesh3D};

/// One parallel 2D stage (rows distributed over the Rayon pool, each
/// computed by the reference's row body).
pub fn par_step_2d<T: Element, K: StencilOp2D<T>>(k: &K, input: &Mesh2D<T>) -> Mesh2D<T> {
    let nx = input.nx();
    let mut out = Mesh2D::<T>::zeros(nx, input.ny());
    out.as_mut_slice()
        .par_chunks_mut(nx)
        .enumerate()
        .for_each(|(y, row)| reference::step_row_2d(k, input, y, row));
    out
}

/// Run `iters` parallel 2D iterations.
pub fn par_run_2d<T: Element, K: StencilOp2D<T>>(
    k: &K,
    mesh: &Mesh2D<T>,
    iters: usize,
) -> Mesh2D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        cur = par_step_2d(k, &cur);
    }
    cur
}

/// One parallel 3D stage (planes × rows distributed over the pool).
pub fn par_step_3d<T: Element, K: StencilOp3D<T>>(k: &K, input: &Mesh3D<T>) -> Mesh3D<T> {
    let nx = input.nx();
    let mut out = Mesh3D::<T>::zeros(nx, input.ny(), input.nz());
    out.as_mut_slice()
        .par_chunks_mut(nx)
        .enumerate()
        .for_each(|(row_idx, row)| reference::step_row_3d(k, input, row_idx, row));
    out
}

/// Run `iters` parallel 3D iterations.
pub fn par_run_3d<T: Element, K: StencilOp3D<T>>(
    k: &K,
    mesh: &Mesh3D<T>,
    iters: usize,
) -> Mesh3D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        cur = par_step_3d(k, &cur);
    }
    cur
}

/// Parallel multi-stage 2D loop chain.
pub fn par_run_stages_2d<T: Element, K: StencilOp2D<T>>(
    stages: &[K],
    mesh: &Mesh2D<T>,
    iters: usize,
) -> Mesh2D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        for k in stages {
            cur = par_step_2d(k, &cur);
        }
    }
    cur
}

/// Parallel multi-stage 3D loop chain.
pub fn par_run_stages_3d<T: Element, K: StencilOp3D<T>>(
    stages: &[K],
    mesh: &Mesh3D<T>,
    iters: usize,
) -> Mesh3D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        for k in stages {
            cur = par_step_3d(k, &cur);
        }
    }
    cur
}

/// Parallel batched 2D solve: the batch dimension itself is parallelized —
/// the same strategy the paper's GPU batching baseline \[27\] uses.
pub fn par_run_batch_2d<T: Element, K: StencilOp2D<T>>(
    k: &K,
    batch: &Batch2D<T>,
    iters: usize,
) -> Batch2D<T> {
    let meshes: Vec<_> =
        (0..batch.batch()).into_par_iter().map(|i| par_run_2d(k, &batch.mesh(i), iters)).collect();
    Batch2D::from_meshes(&meshes)
}

/// Parallel batched 3D solve.
pub fn par_run_batch_3d<T: Element, K: StencilOp3D<T>>(
    k: &K,
    batch: &Batch3D<T>,
    iters: usize,
) -> Batch3D<T> {
    let meshes: Vec<_> =
        (0..batch.batch()).into_par_iter().map(|i| par_run_3d(k, &batch.mesh(i), iters)).collect();
    Batch3D::from_meshes(&meshes)
}

/// Parallel RTM forward pass.
pub fn par_rtm_run(
    y: &Mesh3D<RtmState>,
    rho: &Mesh3D<f32>,
    mu: &Mesh3D<f32>,
    params: RtmParams,
    iters: usize,
) -> Mesh3D<RtmState> {
    let stages = RtmStage::pipeline(params);
    let packed0 = rtm::pack(y, rho, mu);
    let packed = par_run_stages_3d(&stages, &packed0, iters);
    rtm::unpack(&packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi3d::Jacobi3D;
    use crate::poisson::Poisson2D;
    use crate::reference;
    use sf_mesh::norms;

    #[test]
    fn par_2d_bit_exact_vs_reference() {
        let m = Mesh2D::<f32>::random(33, 17, 5, -1.0, 1.0);
        let seq = reference::run_2d(&Poisson2D, &m, 10);
        let par = par_run_2d(&Poisson2D, &m, 10);
        assert!(norms::bit_equal(seq.as_slice(), par.as_slice()));
    }

    #[test]
    fn par_3d_bit_exact_vs_reference() {
        let m = Mesh3D::<f32>::random(13, 11, 9, 6, -1.0, 1.0);
        let k = Jacobi3D::smoothing();
        let seq = reference::run_3d(&k, &m, 8);
        let par = par_run_3d(&k, &m, 8);
        assert!(norms::bit_equal(seq.as_slice(), par.as_slice()));
    }

    #[test]
    fn par_rtm_bit_exact_vs_reference() {
        let (y, rho, mu) = rtm::demo_workload(14, 12, 13);
        let prm = RtmParams::default();
        let seq = reference::rtm_run(&y, &rho, &mu, prm, 4);
        let par = par_rtm_run(&y, &rho, &mu, prm, 4);
        assert!(norms::bit_equal(seq.as_slice(), par.as_slice()));
    }

    #[test]
    fn par_batch_bit_exact_vs_reference() {
        let batch = Batch2D::<f32>::random(12, 9, 4, 7, 0.0, 1.0);
        let seq = reference::run_batch_2d(&Poisson2D, &batch, 5);
        let par = par_run_batch_2d(&Poisson2D, &batch, 5);
        assert!(norms::bit_equal(seq.as_slice(), par.as_slice()));
    }

    #[test]
    fn par_batch_3d_bit_exact() {
        let batch = Batch3D::<f32>::random(8, 8, 8, 3, 11, 0.0, 1.0);
        let k = Jacobi3D::smoothing();
        let seq = reference::run_batch_3d(&k, &batch, 3);
        let par = par_run_batch_3d(&k, &batch, 3);
        assert!(norms::bit_equal(seq.as_slice(), par.as_slice()));
    }
}
