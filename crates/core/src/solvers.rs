//! Typed end-to-end solvers: numeric execution on the simulated FPGA with
//! built-in golden-reference validation.
//!
//! These are the "applications" a downstream user runs: each wraps a
//! synthesized [`StencilDesign`] and executes meshes through the dataflow
//! simulator, optionally asserting bit-exactness against the sequential
//! reference (`validate = true` is the default for anything
//! correctness-critical; turn it off for timing studies on larger meshes).

use crate::error::SfError;
use crate::workflow::Workflow;
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::{fast, ExecEngine, FpgaDevice, Recorder, SimReport};
use sf_kernels::rtm::{self, RtmState};
use sf_kernels::{reference, Jacobi3D, Poisson2D, RtmParams, RtmStage, StencilSpec};
use sf_mesh::{norms, Batch2D, Batch3D, Mesh3D};

/// Poisson-5pt-2D solver on the simulated U280.
#[derive(Clone, Debug)]
pub struct PoissonSolver {
    /// The synthesized design executing the solves.
    pub design: StencilDesign,
    device: FpgaDevice,
}

impl PoissonSolver {
    /// Build from a workflow-selected best design for the workload.
    pub fn auto(wf: &Workflow, wl: &Workload, niter: u64) -> Result<Self, SfError> {
        let best = wf.best_design(&StencilSpec::poisson(), wl, niter)?;
        Ok(PoissonSolver { design: best.design, device: wf.device.clone() })
    }

    /// Build around an explicit design.
    pub fn with_design(device: FpgaDevice, design: StencilDesign) -> Self {
        PoissonSolver { design, device }
    }

    /// Solve `niter` iterations on a batch of meshes.
    pub fn run(&self, input: &Batch2D<f32>, niter: usize) -> (Batch2D<f32>, SimReport) {
        let (dev, ds, rec) = (&self.device, &self.design, &mut Recorder::disabled());
        fast::simulate_2d_exec(ExecEngine::default(), dev, ds, &[Poisson2D], input, niter, rec)
    }

    /// Solve and assert bit-exactness vs the golden reference.
    pub fn run_validated(&self, input: &Batch2D<f32>, niter: usize) -> (Batch2D<f32>, SimReport) {
        let (out, rep) = self.run(input, niter);
        let golden = reference::run_batch_2d(&Poisson2D, input, niter);
        assert!(
            norms::bit_equal(out.as_slice(), golden.as_slice()),
            "FPGA Poisson diverged from golden reference: {:?}",
            norms::first_mismatch(out.as_slice(), golden.as_slice())
        );
        (out, rep)
    }
}

/// Jacobi-7pt-3D solver on the simulated U280.
#[derive(Clone, Debug)]
pub struct JacobiSolver {
    /// The synthesized design executing the solves.
    pub design: StencilDesign,
    /// The 7 coefficients of paper eq. (18).
    pub kernel: Jacobi3D,
    device: FpgaDevice,
}

impl JacobiSolver {
    /// Build from a workflow-selected best design (smoothing coefficients).
    pub fn auto(wf: &Workflow, wl: &Workload, niter: u64) -> Result<Self, SfError> {
        let best = wf.best_design(&StencilSpec::jacobi(), wl, niter)?;
        Ok(JacobiSolver {
            design: best.design,
            kernel: Jacobi3D::smoothing(),
            device: wf.device.clone(),
        })
    }

    /// Build around an explicit design and coefficients.
    pub fn with_design(device: FpgaDevice, design: StencilDesign, kernel: Jacobi3D) -> Self {
        JacobiSolver { design, kernel, device }
    }

    /// Solve `niter` iterations on a batch of meshes.
    pub fn run(&self, input: &Batch3D<f32>, niter: usize) -> (Batch3D<f32>, SimReport) {
        let (dev, ds, rec) = (&self.device, &self.design, &mut Recorder::disabled());
        fast::simulate_3d_exec(ExecEngine::default(), dev, ds, &[self.kernel], input, niter, rec)
    }

    /// Solve and assert bit-exactness vs the golden reference.
    pub fn run_validated(&self, input: &Batch3D<f32>, niter: usize) -> (Batch3D<f32>, SimReport) {
        let (out, rep) = self.run(input, niter);
        let golden = reference::run_batch_3d(&self.kernel, input, niter);
        assert!(
            norms::bit_equal(out.as_slice(), golden.as_slice()),
            "FPGA Jacobi diverged from golden reference: {:?}",
            norms::first_mismatch(out.as_slice(), golden.as_slice())
        );
        (out, rep)
    }
}

/// RTM forward-pass solver: the fused 4-stage RK4 pipeline on the simulated
/// U280.
#[derive(Clone, Debug)]
pub struct RtmSolver {
    /// The synthesized design executing the solves.
    pub design: StencilDesign,
    /// Physics/time-step parameters.
    pub params: RtmParams,
    device: FpgaDevice,
}

impl RtmSolver {
    /// Build from a workflow-selected best design.
    pub fn auto(
        wf: &Workflow,
        wl: &Workload,
        niter: u64,
        params: RtmParams,
    ) -> Result<Self, SfError> {
        let best = wf.best_design(&StencilSpec::rtm(), wl, niter)?;
        Ok(RtmSolver { design: best.design, params, device: wf.device.clone() })
    }

    /// Build around an explicit design.
    pub fn with_design(device: FpgaDevice, design: StencilDesign, params: RtmParams) -> Self {
        RtmSolver { design, params, device }
    }

    /// Run `niter` RK4 steps on a state mesh with ρ/μ coefficient fields.
    pub fn run(
        &self,
        y: &Mesh3D<RtmState>,
        rho: &Mesh3D<f32>,
        mu: &Mesh3D<f32>,
        niter: usize,
    ) -> (Mesh3D<RtmState>, SimReport) {
        let stages = RtmStage::pipeline(self.params);
        let packed = Batch3D::from_meshes(&[rtm::pack(y, rho, mu)]);
        let (dev, ds, rec) = (&self.device, &self.design, &mut Recorder::disabled());
        let (out, rep) =
            fast::simulate_3d_exec(ExecEngine::default(), dev, ds, &stages, &packed, niter, rec);
        (rtm::unpack(&out.mesh(0)), rep)
    }

    /// Run and assert bit-exactness vs the golden RTM reference.
    pub fn run_validated(
        &self,
        y: &Mesh3D<RtmState>,
        rho: &Mesh3D<f32>,
        mu: &Mesh3D<f32>,
        niter: usize,
    ) -> (Mesh3D<RtmState>, SimReport) {
        let (out, rep) = self.run(y, rho, mu, niter);
        let golden = reference::rtm_run(y, rho, mu, self.params, niter);
        assert!(
            norms::bit_equal(out.as_slice(), golden.as_slice()),
            "FPGA RTM diverged from golden reference: {:?}",
            norms::first_mismatch(out.as_slice(), golden.as_slice())
        );
        (out, rep)
    }
}

/// Solve a heterogeneous *book* of 2D Poisson problems: meshes are grouped
/// by shape (the paper batches only same-dimension meshes), each group gets
/// its own workflow-selected batched design, and results return in the
/// input order. This is the production shape of the paper's §IV-B financial
/// workload. The returned reports hold one entry per shape group.
pub fn solve_poisson_book(
    wf: &Workflow,
    book: &[sf_mesh::Mesh2D<f32>],
    niter: usize,
) -> Result<(Vec<sf_mesh::Mesh2D<f32>>, Vec<SimReport>), SfError> {
    let mut results: Vec<Option<sf_mesh::Mesh2D<f32>>> = vec![None; book.len()];
    let mut reports = Vec::new();
    for (batch, idxs) in sf_mesh::batch::group_by_shape_2d(book) {
        let wl = Workload::D2 { nx: batch.nx(), ny: batch.ny(), batch: batch.batch() };
        let best = wf.best_design(&StencilSpec::poisson(), &wl, niter as u64)?;
        let solver = PoissonSolver::with_design(wf.device.clone(), best.design);
        let (out, rep) = solver.run(&batch, niter);
        for (slot, &orig) in idxs.iter().enumerate() {
            results[orig] = Some(out.mesh(slot));
        }
        reports.push(rep);
    }
    let out: Vec<_> = results.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), book.len(), "every mesh is covered by exactly one shape group");
    Ok((out, reports))
}

/// Result of a run-to-steady-state solve.
#[derive(Clone, Debug, PartialEq)]
pub struct SteadyState<T> {
    /// The converged (or last) state.
    pub result: T,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Max-norm of the last inter-pass difference.
    pub residual: f32,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
}

impl PoissonSolver {
    /// Iterate in design-sized passes until the max-norm change between
    /// passes drops below `tol` (the explicit-solver steady-state criterion
    /// of paper §II) or `max_iters` is reached.
    pub fn run_to_steady_state(
        &self,
        input: &Batch2D<f32>,
        tol: f32,
        max_iters: usize,
    ) -> (SteadyState<Batch2D<f32>>, SimReport) {
        assert!(tol > 0.0 && max_iters > 0);
        let mut cur = input.clone();
        let mut done = 0usize;
        let mut residual = f32::INFINITY;
        while done < max_iters {
            let step = self.design.p.min(max_iters - done);
            let (next, _) = self.run(&cur, step);
            residual = norms::max_abs_diff(next.as_slice(), cur.as_slice());
            cur = next;
            done += step;
            if residual < tol {
                break;
            }
        }
        let report = {
            let wl = Workload::D2 { nx: input.nx(), ny: input.ny(), batch: input.batch() };
            let plan = sf_fpga::cycles::plan(&self.device, &self.design, &wl, done as u64);
            SimReport::from_plan(
                &self.design,
                &plan,
                done as u64,
                sf_fpga::power::fpga_power_w(&self.device, &self.design),
            )
        };
        (SteadyState { converged: residual < tol, result: cur, iterations: done, residual }, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_fpga::design::{synthesize, ExecMode};
    use sf_fpga::MemKind;
    use sf_mesh::Mesh2D;

    fn wf() -> Workflow {
        Workflow::u280_vs_v100()
    }

    #[test]
    fn poisson_solver_auto_runs_validated() {
        let wl = Workload::D2 { nx: 48, ny: 24, batch: 3 };
        let solver = PoissonSolver::auto(&wf(), &wl, 12).unwrap();
        let input = Batch2D::<f32>::random(48, 24, 3, 5, -1.0, 1.0);
        let (_, rep) = solver.run_validated(&input, 12);
        assert!(rep.runtime_s > 0.0);
        assert!(matches!(rep.mode, ExecMode::Batched { b: 3 }));
    }

    #[test]
    fn jacobi_solver_explicit_design() {
        let d = FpgaDevice::u280();
        let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
        let design =
            synthesize(&d, &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let solver = JacobiSolver::with_design(d, design, Jacobi3D::smoothing());
        let input = Batch3D::<f32>::random(16, 12, 10, 1, 9, -1.0, 1.0);
        let (_, rep) = solver.run_validated(&input, 7);
        assert_eq!(rep.v, 8);
    }

    #[test]
    fn heterogeneous_book_solved_in_order() {
        let book = vec![
            Mesh2D::<f32>::random(24, 12, 1, -1.0, 1.0),
            Mesh2D::<f32>::random(16, 16, 2, -1.0, 1.0),
            Mesh2D::<f32>::random(24, 12, 3, -1.0, 1.0),
            Mesh2D::<f32>::random(16, 16, 4, -1.0, 1.0),
            Mesh2D::<f32>::random(24, 12, 5, -1.0, 1.0),
        ];
        let (solved, reports) = solve_poisson_book(&wf(), &book, 7).unwrap();
        assert_eq!(solved.len(), 5);
        assert_eq!(reports.len(), 2, "two shape groups");
        for (i, m) in book.iter().enumerate() {
            let golden = reference::run_2d(&Poisson2D, m, 7);
            assert!(
                norms::bit_equal(solved[i].as_slice(), golden.as_slice()),
                "instrument {i} diverged"
            );
        }
    }

    #[test]
    fn steady_state_converges_and_reports() {
        let wl = Workload::D2 { nx: 24, ny: 24, batch: 1 };
        let solver = PoissonSolver::auto(&wf(), &wl, 1000).unwrap();
        let mut m = Mesh2D::<f32>::zeros(24, 24);
        m.set(12, 12, 10.0); // hot spot decays towards the zero boundary
        let input = Batch2D::from_meshes(&[m]);
        let (ss, rep) = solver.run_to_steady_state(&input, 1e-6, 10_000);
        assert!(ss.converged, "residual {} after {}", ss.residual, ss.iterations);
        assert!(ss.iterations < 10_000);
        assert!(ss.residual < 1e-6);
        assert_eq!(rep.niter, ss.iterations as u64);
        // steady state of this contraction is the zero field
        assert!(sf_mesh::norms::max_norm_2d(&ss.result.mesh(0)) < 1e-2);
    }

    #[test]
    fn steady_state_budget_respected() {
        let wl = Workload::D2 { nx: 16, ny: 16, batch: 1 };
        let solver = PoissonSolver::auto(&wf(), &wl, 100).unwrap();
        let input = Batch2D::<f32>::random(16, 16, 1, 3, -1.0, 1.0);
        let (ss, _) = solver.run_to_steady_state(&input, 1e-30, 7);
        assert!(!ss.converged);
        assert_eq!(ss.iterations, 7);
    }

    #[test]
    fn rtm_auto_finds_paper_design_at_paper_scale() {
        // at the paper's 64²-plane scale with 1800 iterations, the workflow
        // must land on the paper's V=1, p=3 configuration
        let wl = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
        let solver = RtmSolver::auto(&wf(), &wl, 1800, RtmParams::default()).unwrap();
        assert_eq!(solver.design.v, 1, "paper §V-C: V = 1");
        assert_eq!(solver.design.p, 3, "paper §V-C: p = 3");
    }

    #[test]
    fn rtm_solver_runs_validated() {
        let d = FpgaDevice::u280();
        let wl = Workload::D3 { nx: 13, ny: 12, nz: 14, batch: 1 };
        let design =
            synthesize(&d, &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let solver = RtmSolver::with_design(d, design, RtmParams::default());
        let (y, rho, mu) = rtm::demo_workload(13, 12, 14);
        let (out, rep) = solver.run_validated(&y, &rho, &mu, 6);
        assert!(out.all_finite());
        assert!(rep.bandwidth_gbs > 0.0);
        assert_eq!(rep.passes, 2);
    }
}
